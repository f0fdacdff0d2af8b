"""Time FOR projection and ADMM on the tall ladder: more feeder generators.

Rung g is `tests/suite_helpers.deep_feeder(range(2, g + 2))` under the
loss-linearized model: the packaged 15-bus feeder with generators at its
local buses 2..g+1.  Each rung runs in its own subprocess with one BLAS
thread and a wall cap of CAP_S seconds; a rung over its cap is recorded as
over budget.  The FOR axis (RUNGS) projects the feeder's FOR
(`coupling_region`) until it has run RUNS times or for REPEAT_S seconds,
and records

    seconds     the fastest projection,
    runs        how many it timed,
    max_rows    the largest intermediate row count,
    for_rows    the FOR's row count,
    exact_lps   LP members of the exact redundancy pass (null where the
                tree does not count them).

The ADMM axis (ADMM_RUNGS) runs `run_admm` on
`tests/suite_helpers.deep_partition(range(2, g + 2))`, the built-in
attachment with that feeder as feeder 1, the same way, and records

    seconds     the fastest run,
    runs        how many it timed,
    rounds      the rounds a run spent,
    converged   whether it converged,
    gap         its cost's distance to the centralized optimum, relative.

The degenerate axis (DEGENERATE_RUNGS) runs `gridcoord compare` on the
genless partition, `tests/suite_helpers.toy_tso_case` with
`genless_dso_case` as its one feeder: a feeder without generators, whose
FOR is a segment.  It records

    exit_code   the exit code of `compare`,
    flagged     each flagged row's error stage (the error's text before
                its first colon),
    seconds     the wall time of `compare`.

The broad axis (BROAD_RUNGS) runs the six `compare` rows
(`bench_cli._compare_rows`, defaults as `gridcoord compare` has them) on
`tests/suite_helpers.feeder_copies(n)`, n copies of the packaged feeder,
the same way, and records

    seconds       the fastest `compare`, all six rows,
    runs          how many it timed,
    rows          per row, its fastest end-to-end time (`total_s`), its
                  operations and whether it is feasible,
    centralized   the loss-linearized centralized QP's n, p, m (columns,
                  equality and inequality rows) and k (free directions
                  after its equality reduction),
    admm_rounds   the rounds of the ADMM row,
    peak_rss_mb   the subprocess's peak resident set size.

A rung whose subprocess fails is recorded with the last line of its
error output: a parent tree whose `tests/suite_helpers.py` lacks the
genless case cannot run the degenerate rung.

With --parent, every rung runs on that revision as well, from `git
archive` in a temporary directory, and the side that runs first
alternates from rung to rung (parent first on even rung indices).  The
result, with the host line BENCH_*.json files carry, goes to
LADDER_<number>.json at the repository root.  Run from the repository
root, for example

    python3 scripts/ladder.py --number 22 --parent HEAD
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = (9, 11, 12, 13, 14)
ADMM_RUNGS = (9, 10, 11)
DEGENERATE_RUNGS = (0,)  # generators on the feeder
BROAD_RUNGS = (14, 28, 56)  # feeders
CAP_S = 60.0
RUNS = 5
REPEAT_S = 5.0


def rung(generators: int) -> dict:
    """Time one rung in this process, with the gridcoord and suite_helpers
    that sys.path finds."""
    from gridcoord import powerflow_models as pm
    from gridcoord import projection as pj
    from suite_helpers import deep_feeder

    model = pm.build_dso_model(*deep_feeder(range(2, generators + 2)),
                               "loss_linearized")
    times, start = [], time.perf_counter()
    while len(times) < RUNS and time.perf_counter() - start < REPEAT_S:
        stats = {}
        t0 = time.perf_counter()
        region = pj.coupling_region(model, stats=stats)
        times.append(time.perf_counter() - t0)
    return {"generators": generators, "seconds": min(times),
            "runs": len(times), "max_rows": stats["max_rows"],
            "for_rows": region.n_rows, "exact_lps": stats.get("exact_lps")}


def admm_rung(generators: int) -> dict:
    """Time one ADMM rung in this process, like `rung`."""
    from gridcoord import admm_coordinator as ad
    from gridcoord import powerflow_models as pm
    from gridcoord.opt_core import solve_qp
    from suite_helpers import deep_partition

    part = deep_partition(range(2, generators + 2))
    times, start = [], time.perf_counter()
    while len(times) < RUNS and time.perf_counter() - start < REPEAT_S:
        t0 = time.perf_counter()
        res = ad.run_admm(part, "loss_linearized")
        times.append(time.perf_counter() - t0)
    central = solve_qp(pm.assemble_centralized(part, "loss_linearized").qp,
                       tol=1e-9).objective
    return {"generators": generators, "seconds": min(times),
            "runs": len(times), "rounds": res.iterations,
            "converged": bool(res.converged),
            "gap": abs(res.total_cost - central) / abs(central)}


def degenerate_rung(generators: int = 0) -> dict:
    """Run `compare` on the genless partition in this process, like
    `rung`; `generators` is the feeder's count, 0, kept for the record."""
    from gridcoord import bench_cli as bc
    from gridcoord import grid_model as gm
    from suite_helpers import genless_dso_case, toy_tso_case

    with tempfile.TemporaryDirectory(prefix="ladder-genless-") as tmp:
        files = []
        for name, case in (("tso", toy_tso_case()),
                           ("dso", genless_dso_case())):
            files.append(os.path.join(tmp, f"{name}.json"))
            with open(files[-1], "w", encoding="utf-8") as fh:
                fh.write(gm.serialize_case(case))
        t0 = time.perf_counter()
        code = bc.main(["compare", "--tso", files[0], "--dso",
                        f"2={files[1]}", "--out", tmp])
        seconds = time.perf_counter() - t0
        with open(os.path.join(tmp, "compare.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
    return {"generators": generators, "exit_code": code,
            "flagged": {r["algorithm"]: r["error"].partition(":")[0]
                        for r in rows if "error" in r},
            "seconds": seconds}


def broad_rung(feeders: int) -> dict:
    """Time `compare` on `feeders` feeder copies in this process, like
    `rung`."""
    import resource

    from gridcoord import bench_cli as bc
    from gridcoord import opt_core as oc
    from gridcoord import powerflow_models as pm
    from suite_helpers import feeder_copies

    part = feeder_copies(feeders)
    cfg = bc.RunConfig(command="compare")
    runs, times, start = [], [], time.perf_counter()
    while len(times) < RUNS and time.perf_counter() - start < REPEAT_S:
        t0 = time.perf_counter()
        runs.append(bc._compare_rows(part, cfg))
        times.append(time.perf_counter() - t0)
    rows = {row["algorithm"]: {
        "total_s": min(timing[row["algorithm"]]["total_s"]
                       for _, timing in runs),
        "operations": row["operations"], "feasible": bool(row["feasible"])}
        for row in runs[-1][0]}
    qp = pm.assemble_centralized(part, "loss_linearized").qp
    return {"feeders": feeders, "seconds": min(times), "runs": len(times),
            "rows": rows,
            "centralized": {"n": qp.n, "p": qp.b_eq.size, "m": qp.b_ineq.size,
                            "k": oc.EqualityReduction.of(qp).N.shape[1]},
            "admm_rounds": rows["admm"]["operations"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# axis: (result key, rungs, rung function, the field a rung is named by)
AXES = {"for": ("rungs", RUNGS, rung, "generators"),
        "admm": ("admm_rungs", ADMM_RUNGS, admm_rung, "generators"),
        "degenerate": ("degenerate_rungs", DEGENERATE_RUNGS,
                       degenerate_rung, "generators"),
        "broad": ("broad_rungs", BROAD_RUNGS, broad_rung, "feeders")}


def _run_rung(tree: str, size: int, axis: str) -> dict:
    """One rung of the axis in a subprocess on the tree, its over-budget
    record, or its failure."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    field = AXES[axis][3]
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--rung",
             str(size), "--axis", axis, "--tree", tree],
            env=env, check=True, capture_output=True, text=True,
            timeout=CAP_S)
    except subprocess.TimeoutExpired:
        return {field: size, "over_budget": True, "cap_s": CAP_S}
    except subprocess.CalledProcessError as exc:
        return {field: size,
                "failed": (exc.stderr.strip().splitlines() or [""])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, help="write LADDER_<number>.json")
    p.add_argument("--parent", help="also run the rungs on this revision")
    p.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    p.add_argument("--axis", default="for", choices=AXES,
                   help=argparse.SUPPRESS)
    p.add_argument("--tree", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.rung is not None:  # the subprocess of one rung
        sys.path[:0] = [os.path.join(args.tree, "src"),
                        os.path.join(args.tree, "tests")]
        print(json.dumps(AXES[args.axis][2](args.rung)))
        return 0
    if args.number is None:
        p.error("--number is required")
    result = {
        "what": ("FOR projection of one feeder with g generators (rungs) "
                 "and ADMM on the partition with that feeder as feeder 1 "
                 "(admm_rungs), loss-linearized; compare on the genless "
                 "partition (degenerate_rungs) and on n feeder copies "
                 "(broad_rungs); each rung in its own subprocess"),
        "cap_s": CAP_S,
        "host": (f"{os.cpu_count()} cores, Python "
                 f"{'.'.join(platform.python_version_tuple()[:2])}, "
                 f"one BLAS thread (set by scripts/ladder.py)"),
        **{key: {} for key, *_ in AXES.values()},
    }
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            from bench_pairs import archive, git  # this script's sibling
            archive(args.parent, tmp)
            result["parent"] = git("rev-parse", args.parent).decode().strip()
            trees["parent"] = tmp
        for axis, (key, rungs, *_) in AXES.items():
            for k, g in enumerate(rungs):
                # parent first on even rung indices
                for side in sorted(trees, reverse=k % 2 == 0):
                    row = _run_rung(trees[side], g, axis)
                    result[key].setdefault(side, []).append(row)
                    print(f"{side} {axis} {json.dumps(row)}", flush=True)
    out = os.path.join(ROOT, f"LADDER_{args.number}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
