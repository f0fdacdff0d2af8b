"""Run the frozen benchmark in alternating parent/change pairs.

Each side runs in its own fresh directory: the parent from `git archive` of
a revision, the change from a copy of this checkout's working tree (tracked
files and untracked files that are not ignored).  Each of the three
workloads runs ten pairs, and every pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once on each side with the same seed, T being the parent's BENCHMARK.json
`run_seconds`; the side that runs first alternates (parent first on even
pair indices).  The result is written to
BENCH_<number>.json at the repository root, with every run's end-to-end
metrics and, per metric, both sides' quartiles, the pairs the change wins
and loses, the relative change of the medians and the parent's IQR.

Seeds follow the earlier files: pair p (from 1) of workload W uses
(number - 8) * 1000 + 100 * index(W) + p, with deep, builtin and wide at
indices 1, 2 and 3.  Run from the repository root, for example

    python3 scripts/bench_pairs.py --parent HEAD --number 15

Ten pairs of all three workloads take about 35 minutes on 2 cores.
"""
import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("builtin", "wide", "deep")
PAIRS = 10
SEED_INDEX = {"deep": 1, "builtin": 2, "wide": 3}
SIDES = ("parent", "change")
WHAT = ("alternating parent/change pairs of the frozen benchmark, one run "
        "each side a pair; the side that runs first alternates (parent "
        "first on even pair indices)")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def archive(rev: str, dest: str) -> None:
    """The files of revision rev, as `git archive` gives them, in dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def _working_tree(dest: str) -> None:
    """This checkout's tracked and unignored untracked files, in dest."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the tree is not
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one benchmark run in tree, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(parent: list, change: list, lower_is_better: bool) -> dict:
    parent, change = np.asarray(parent, float), np.asarray(change, float)
    sign = 1.0 if lower_is_better else -1.0
    q_parent = np.percentile(parent, [25, 50, 75])
    q_change = np.percentile(change, [25, 50, 75])
    return {
        "parent_q1_median_q3": q_parent.tolist(),
        "change_q1_median_q3": q_change.tolist(),
        "change_wins": int((sign * (change - parent) < 0).sum()),
        "change_losses": int((sign * (change - parent) > 0).sum()),
        "median_change": (float((q_change[1] - q_parent[1]) / q_parent[1])
                          if q_parent[1] else 0.0),
        "parent_iqr": float(q_parent[2] - q_parent[0]),
    }


def _workload(trees: dict, name: str, number: int, seconds: float,
              spec: list) -> dict:
    seeds = [(number - 8) * 1000 + 100 * SEED_INDEX[name] + p
             for p in range(1, PAIRS + 1)]
    out = {"seeds": seeds, "first": [], "attempted": {s: [] for s in SIDES},
           "failed": {s: [] for s in SIDES},
           "correct": {s: [] for s in SIDES},
           "metrics": {m["name"]: {"unit": m["unit"], "parent": [],
                                   "change": []} for m in spec}}
    for p, seed in enumerate(seeds):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        out["first"].append(order[0])
        for side in order:
            res = _run(trees[side], name, seed, seconds)
            for key in ("attempted", "failed", "correct"):
                out[key][side].append(res[key])
            for metric, values in out["metrics"].items():
                values[side].append(res["metrics"][metric]["value"])
            print(f"{name} pair {p + 1}/{PAIRS} {side}: compare_s "
                  f"{res['metrics']['compare_s']['value']:.3f}", flush=True)
    out["summary"] = {m["name"]: _summary(
        out["metrics"][m["name"]]["parent"],
        out["metrics"][m["name"]]["change"], m["better"] == "lower")
        for m in spec}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--number", type=int, required=True,
                   help="write BENCH_<number>.json; sets the seeds")
    args = p.parse_args(argv)
    parent = git("rev-parse", args.parent).decode().strip()
    out_path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        archive(parent, trees["parent"])
        _working_tree(trees["change"])
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        spec, seconds = bench["end_to_end"], bench["run_seconds"]
        result = {
            "what": WHAT,
            "command": (f"python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {seconds:g} --trace 0"),
            "host": (f"{os.cpu_count()} cores, Python "
                     f"{'.'.join(platform.python_version_tuple()[:2])}, "
                     f"one BLAS thread (set by perfbench/run.py)"),
            "parent": parent,
            "workloads": {},
        }
        for name in WORKLOADS:
            result["workloads"][name] = _workload(
                trees, name, args.number, seconds, spec)
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
