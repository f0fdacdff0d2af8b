"""Benchmark: the six `gridcoord compare` rows, end to end, on one workload.

Run from the repository root, for example

    python3 perfbench/run.py --workload builtin --seed 1 --seconds 20 --trace 0

The process imports the program from `src/`, builds the workload's partition
(the set-up) and confirms it: both centralized optima certify by KKT and
every FOR is nonempty and bounded.  It then runs passes of the six rows
(centralized, ADMM, four two-sweep variants) through the same public entry
points `gridcoord compare` uses, timing every call from outside, until
`--seconds` have passed; every row's output is checked after its timer
stops.  The last line of standard output is one JSON object: end-to-end
metrics with `--trace 0`, per-layer metrics from spans around every public
function of the program with `--trace 1` (see README.md).
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per core, the centralized solve of `deep` on a 2-core host takes
# 43 to 249 ms from call to call; with one thread it takes 26 to 29 ms.
# Child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units

WORKLOADS = ("builtin", "wide", "deep")
SETUP_CHILDREN = 2  # set-ups timed in fresh processes, beside this one's
CHILD_TIMEOUT_S = 120
MODELS = ("loss_linearized", "lindistflow")
# the four two-sweep rows in `compare` order: (name, model, value mode)
ADP_ROWS = (("adp_ll_none", "loss_linearized", "zero"),
            ("adp_ll_quadratic", "loss_linearized", "quadratic"),
            ("adp_ldf_none", "lindistflow", "zero"),
            ("adp_ldf_quadratic", "lindistflow", "quadratic"))



def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# Modules that load numpy (the program, and this directory's `workloads`,
# `checks` and `tracing`) are imported inside functions: `setup_s` counts
# from T_START and must cover the program's imports and no others.


def _setup(name, seed, tracer_factory=None):
    """Import the program, build and validate the workload.

    Returns (workload, tracer or None, seconds since process start).
    """
    sys.path.insert(0, SRC)
    import gridcoord
    if os.path.dirname(os.path.abspath(gridcoord.__file__)) != os.path.join(
            SRC, "gridcoord"):
        raise ImportError(f"gridcoord imported from {gridcoord.__file__}, "
                          f"not from {SRC}")
    # the entry points of the six rows pull in every layer of the program
    from gridcoord import adp_coordinator, admm_coordinator  # noqa: F401
    tracer = tracer_factory().install() if tracer_factory else None
    import workloads
    workload = workloads.build(name, seed)
    return workload, tracer, time.perf_counter() - T_START


def _child_setups(args):
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True, cwd=ROOT)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Reference:
    """What the rows are checked against, computed before any timing.

    Confirms the workload: both centralized optima certify by KKT, and
    lifted LPs over every full feeder model show each exact FOR nonempty
    and bounded (the seeded directions include both signs of every axis).
    The same LPs are the support function every FOR a row ships must have.
    """

    def __init__(self, workload):
        import checks
        from gridcoord.opt_core import solve_qp
        from gridcoord.powerflow_models import (assemble_centralized,
                                                build_dso_model)

        part = workload.partition
        self.directions = workload.directions
        self.central, self.lifted, self._verdicts = {}, {}, {}
        for kind in MODELS:
            prob = assemble_centralized(part, kind)
            sol = solve_qp(prob.qp)
            problems = checks.check_optimum(prob.qp, sol)
            if problems:
                raise RuntimeError(f"{workload.name}: centralized {kind} "
                                   f"optimum does not certify: {problems}")
            self.central[kind] = float(sol.objective)
            self.lifted[kind] = []
            for case, link in zip(part.dsos, part.links):
                lifted = checks.lifted_supports(
                    build_dso_model(case, link, kind), self.directions)
                if None in lifted:
                    raise RuntimeError(f"{workload.name}: the exact {kind} "
                                       f"FOR of dso {link.dso_index} is "
                                       f"empty or unbounded")
                self.lifted[kind].append(lifted)

    def region_problems(self, kind, regions) -> list:
        """Support mismatches of the FORs one row shipped, in DSO order.

        Each distinct FOR is checked once a run: every pass and both value
        modes of a model ship the same regions.
        """
        import checks
        problems = []
        for k, (region, lifted) in enumerate(zip(regions,
                                                 self.lifted[kind])):
            key = (kind, k, region.A.tobytes(), region.b.tobytes())
            if key not in self._verdicts:
                self._verdicts[key] = checks.support_mismatches(
                    region, self.directions, lifted)
            problems += [f"dso {k + 1} {kind} FOR: {m}"
                         for m in self._verdicts[key]]
        return problems


class ForRecorder:
    """Keeps the FORs the two-sweep rows compute, in call order.

    A pass-through wrapper around the `coupling_region` name that
    `adp_coordinator.backward_sweep` calls, adding one list append a FOR,
    so the checks see exactly the regions a row shipped.  It is the only
    change to the program's call path in an untraced run.
    """

    def __init__(self):
        from gridcoord import adp_coordinator
        original = adp_coordinator.coupling_region
        self._regions = []

        def recorded(*args, **kwargs):
            region = original(*args, **kwargs)
            self._regions.append(region)
            return region

        adp_coordinator.coupling_region = recorded

    def take(self) -> list:
        regions, self._regions = self._regions, []
        return regions


def _rows(workload):
    """(name, call, judge) for the six rows, configured as `compare`
    configures them.  judge(outcome, reference, regions) gets the FORs the
    row computed and returns the problems found and the counts that must
    repeat from pass to pass."""
    import checks
    from gridcoord.adp_coordinator import AdpConfig, run_fp_adp
    from gridcoord.admm_coordinator import run_admm
    from gridcoord.opt_core import solve_qp
    from gridcoord.powerflow_models import assemble_centralized

    part = workload.partition

    def centralized():
        prob = assemble_centralized(part, "loss_linearized")
        return prob, solve_qp(prob.qp)

    def admm():
        return run_admm(part, "loss_linearized")

    def adp(kind, mode):
        return lambda: run_fp_adp(part, AdpConfig(
            model_kind=kind, value_mode=mode, seed=workload.sample_seed))

    def judge_centralized(out, ref, regions):
        prob, sol = out
        return (checks.check_optimum(prob.qp, sol),
                {"cost": float(sol.objective), "operations": 1})

    def judge_admm(res, ref, regions):
        return (checks.check_admm(res, ref.central["loss_linearized"]),
                {"cost": res.total_cost, "operations": res.iterations,
                 "rounds": res.comm.stats()["rounds"]})

    def judge_adp(kind):
        def judge(res, ref, regions):
            problems = (checks.check_adp(res, ref.central[kind], regions)
                        + ref.region_problems(kind, regions))
            return (problems,
                    {"cost": res.total_cost, "operations": res.operations,
                     "floats": res.comm.stats()["total_floats"]})
        return judge

    rows = [("centralized", centralized, judge_centralized),
            ("admm", admm, judge_admm)]
    rows += [(name, adp(kind, mode), judge_adp(kind))
             for name, kind, mode in ADP_ROWS]
    return rows


def _run_pass(rows, ref, recorder):
    """One pass of the six rows: {name: (seconds, problems, counts)}."""
    out = {}
    for name, call, judge in rows:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # a row that raises is a failed operation
            seconds = time.perf_counter() - t0
            recorder.take()
            out[name] = (seconds, [traceback.format_exc(limit=3)], {})
            continue
        seconds = time.perf_counter() - t0
        out[name] = (seconds,) + judge(result, ref, recorder.take())
    return out


def _pass_metrics(p) -> dict:
    def seconds(*names):
        return sum(p[n][0] for n in names)

    adp_names = [n for n, _, _ in ADP_ROWS]
    return {
        "compare_s": seconds(*p),
        "centralized_s": seconds("centralized"),
        "admm_s": seconds("admm"),
        "adp_regions_s": seconds(*(n for n, _, m in ADP_ROWS if m == "zero")),
        "adp_quadratic_s": seconds(*(n for n, _, m in ADP_ROWS
                                     if m == "quadratic")),
        "admm_rounds": p["admm"][2].get("rounds", 0),
        "adp_floats": sum(p[n][2].get("floats", 0) for n in adp_names),
    }


def _repeats(passes) -> bool:
    """A deterministic program answers every pass the same way."""
    first = passes[0]
    for p in passes[1:]:
        for name, (_, _, counts) in p.items():
            ref = first[name][2]
            if set(counts) != set(ref):
                return False
            for key, value in counts.items():
                if key == "cost":
                    if abs(value - ref[key]) > 1e-9 * max(1.0, abs(value)):
                        return False
                elif value != ref[key]:
                    return False
    return True


def _median(values):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return float(statistics.median(values))


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    if args.setup_only:
        _, _, seconds = _setup(args.workload, args.seed)
        print(repr(seconds))
        return 0

    tracer_factory = None
    if args.trace:
        import tracing
        tracer_factory = tracing.Tracer
    workload, tracer, own_setup = _setup(args.workload, args.seed,
                                         tracer_factory)
    setup_spans = tracer.take() if tracer else []
    setups = [own_setup] + ([] if tracer else _child_setups(args))
    ref = Reference(workload)
    if tracer:
        tracer.take()  # the reference solves are not part of a pass

    rows, recorder = _rows(workload), ForRecorder()
    passes, layers, first_spans = [], [], None
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < args.seconds:
        passes.append(_run_pass(rows, ref, recorder))
        if tracer:
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
            first_spans = first_spans or spans
    if tracer:
        tracer.uninstall()

    attempted = sum(len(p) for p in passes)
    failed = 0
    for k, p in enumerate(passes):
        for name, (_, problems, _) in p.items():
            if problems:
                failed += 1
                print(f"pass {k + 1} {name} failed: " + "; ".join(problems),
                      file=sys.stderr)
    correct = _repeats(passes)
    per_pass = [_pass_metrics(p) for p in passes]

    if tracer:
        values = {key: _median([m[key] for m in layers]) for key in layers[0]}
        values.update(tracing.setup_metrics(setup_spans))
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "compare_s": [m["compare_s"] for m in per_pass],
                       "spans": tracing.span_records(first_spans)}, fh)
    else:
        values = {key: _median([m[key] for m in per_pass])
                  for key in per_pass[0]}
        values["setup_s"] = _median(setups)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
