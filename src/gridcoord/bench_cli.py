"""Command-line front end: run one method, compare all six, export FORs.

Subcommands
  run centralized|admm|adp   one method on the benchmark or custom cases,
                             result JSON to --out
  compare                    centralized + ADMM + the four two-sweep
                             variants; aligned table, CSV, and JSON
  project-for                per-DSO feasible-region slice at fixed nu as
                             a CCW polygon CSV with JSON sidecar

Exit codes: 0 success, 2 declared infeasibility / non-convergence /
empty region, 1 anything else.  Logging level via GRIDCOORD_LOG
(error, info, debug).

Timing convention: every "comp time" is the coordination stage only
(centralized solve, consensus iteration loop, or forward dispatch +
disaggregation); model building and region projection are reported
separately as setup inside the JSON timing block.
"""
from __future__ import annotations

import argparse
import datetime
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import grid_model as gm
from .adp_coordinator import (DEFAULT_PENALTY_WEIGHT, AdpConfig,
                              CoordinationError, run_fp_adp)
from .admm_coordinator import (DEFAULT_MAX_ITER, DEFAULT_RHO, DEFAULT_TOL,
                               run_admm, write_history_csv)
from .opt_core import OPTIMAL, solve_qp
from .powerflow_models import (assemble_centralized, build_dso_model,
                               normalize_model_kind)
from .projection import (EmptyRegion, RowExplosion, coupling_region,
                         slice_fix, vertices_2d, write_polygon_csv)
from .value_function import DEFAULT_SAMPLES

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DECLARED = 2

METHODS = ("centralized", "admm", "adp")
VALUE_FN_CHOICES = ("none", "quadratic")
MODEL_CHOICES = ("ldf", "ll", "lindistflow", "loss_linearized")
_VALUE_MODE = {"none": "zero", "quadratic": "quadratic"}

# flags each method may set beyond the shared case/output group
_METHOD_FLAGS = {
    "centralized": {"for_model"},
    "admm": {"for_model", "rho", "tol", "max_iter"},
    "adp": {"for_model", "value_fn", "samples", "seed", "weight"},
}

# the six comparison rows, in report order: reference, consensus, then
# per-model pairs with the flat value function before the fitted one
COMPARE_VARIANTS = (("adp_ll_none", "loss_linearized", "zero"),
                    ("adp_ll_quadratic", "loss_linearized", "quadratic"),
                    ("adp_ldf_none", "lindistflow", "zero"),
                    ("adp_ldf_quadratic", "lindistflow", "quadratic"))
CSV_HEADER = "algorithm,total_cost,operations,comp_time_s,feasible"


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; flags already checked against the method."""

    command: str
    method: str = ""
    benchmark: bool = False
    tso: str | None = None
    dsos: tuple = ()
    for_model: str = "loss_linearized"
    value_fn: str = "quadratic"
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    weight: float = DEFAULT_PENALTY_WEIGHT
    rho: float = DEFAULT_RHO
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    nu: float = 1.0
    out: str = "."

    def public_dict(self) -> dict:
        doc = asdict(self)
        doc["dsos"] = list(self.dsos)
        return doc


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with this tool's error exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _model_alias(kind: str) -> str:
    return {"lindistflow": "ldf", "loss_linearized": "ll"}.get(kind, kind)


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _load_partition(cfg: RunConfig) -> gm.Partition:
    """Benchmark fixture, or --tso plus one or more --dso specs.

    A DSO spec is FILE, TSOBUS=FILE, or TSOBUS:ROOTBUS=FILE.  Defaults:
    the transmission slack bus and the feeder's own slack bus.  Format
    follows the extension: .m parses as a MATPOWER table, anything else
    as native JSON.
    """
    if cfg.benchmark:
        return gm.load_builtin_benchmark()
    if not cfg.tso or not cfg.dsos:
        raise ValueError("need --benchmark, or --tso FILE with at least "
                         "one --dso FILE")
    tso = _load_case(cfg.tso)
    slack = next(b.id for b in tso.buses if b.kind == "slack")
    dso_cases, links = [], []
    for index, spec in enumerate(cfg.dsos, start=1):
        head, sep, path = spec.rpartition("=")
        tso_bus, root_bus = slack, None
        if sep:
            bus_part, _, root_part = head.partition(":")
            tso_bus = int(bus_part)
            if root_part:
                root_bus = int(root_part)
        case = _load_case(path)
        if root_bus is None:
            root_bus = next(b.id for b in case.buses if b.kind == "slack")
        dso_cases.append(case)
        links.append(gm.Interconnection(index, tso_bus, root_bus))
    return gm.Partition(tso, tuple(dso_cases), tuple(links))


def _load_case(path: str) -> gm.GridCase:
    fmt = "matpower_m" if str(path).endswith(".m") else "native_json"
    return gm.load_case(path, fmt)


def _interfaces(tso_model, x, links) -> list:
    out = []
    for k, link in enumerate(links):
        cols = list(tso_model.vmap.coupling_triple(k))
        out.append({"dso": link.dso_index,
                    "p_if": float(x[cols[0]]),
                    "q_if": float(x[cols[1]]),
                    "nu_if": float(x[cols[2]])})
    return out


def _run_centralized(part, kind: str):
    """Returns (result dict, timing dict); operations is a single solve."""
    t0 = time.perf_counter()
    prob = assemble_centralized(part, kind)
    t1 = time.perf_counter()
    sol = solve_qp(prob.qp)
    t2 = time.perf_counter()
    offsets = prob.offsets
    feasible = sol.status == OPTIMAL
    result = {
        "algorithm": "centralized",
        "model": kind,
        "status": sol.status,
        "feasible": feasible,
        "total_cost": float(sol.objective) if feasible else None,
        "operations": 1,
        "interfaces": _interfaces(prob.tso, sol.x[offsets[0]:], part.links),
    }
    timing = {"setup_s": t1 - t0, "solve_s": t2 - t1, "total_s": t2 - t0}
    return result, timing


def _run_admm(part, cfg: RunConfig):
    res = run_admm(part, cfg.for_model, rho=cfg.rho, tol=cfg.tol,
                   max_iter=cfg.max_iter)
    doc = res.to_dict()
    doc["model"] = cfg.for_model
    doc["feasible"] = doc["converged"]
    timing = doc.pop("timing")
    return res, doc, timing


def _run_adp(part, cfg: RunConfig, model_kind=None, value_mode=None):
    config = AdpConfig(model_kind=model_kind or cfg.for_model,
                       value_mode=value_mode or _VALUE_MODE[cfg.value_fn],
                       n_samples=cfg.samples, seed=cfg.seed,
                       weight=cfg.weight)
    res = run_fp_adp(part, config)
    doc = res.to_dict()
    doc["total_cost"] = res.total_cost
    doc["model"] = config.model_kind
    doc["value_mode"] = config.value_mode
    timings = doc.pop("timings")
    timing = {"setup_s": timings["backward_sweep"],
              "coordination_s": timings["total"] - timings["backward_sweep"],
              "total_s": timings["total"],
              "stages": timings}
    return res, doc, timing


def cmd_run(cfg: RunConfig) -> int:
    part = _load_partition(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.method == "centralized":
        result, timing = _run_centralized(part, cfg.for_model)
        ok = result["feasible"]
    elif cfg.method == "admm":
        res, result, timing = _run_admm(part, cfg)
        write_history_csv(os.path.join(cfg.out, "admm_history.csv"), res)
        ok = result["converged"]
    else:
        _, result, timing = _run_adp(part, cfg)
        ok = result["feasible"]
    doc = {"config": cfg.public_dict(), "result": result,
           "timing": {**timing, "generated_at": _now_iso()}}
    path = _write_json(os.path.join(cfg.out, f"run_{cfg.method}.json"), doc)
    cost = result["total_cost"]
    cost_text = "n/a" if cost is None else f"{cost:.6f}"
    print(f"{cfg.method}: total_cost={cost_text} "
          f"operations={result['operations']} feasible={ok}")
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_DECLARED


def _compare_rows(part, cfg: RunConfig):
    """All six comparison runs; failures become flagged rows."""
    rows, timing = [], {}

    def attempt(name, fn):
        try:
            row, t = fn()
        except (CoordinationError, EmptyRegion, RowExplosion,
                gm.ValidationError) as exc:
            logger.warning("%s failed: %s", name, exc)
            row = {"algorithm": name, "total_cost": None, "operations": None,
                   "feasible": False, "error": str(exc)}
            t = {"total_s": 0.0}
        rows.append(row)
        timing[name] = t

    def centralized():
        result, t = _run_centralized(part, "loss_linearized")
        return ({"algorithm": "centralized",
                 "total_cost": result["total_cost"],
                 "operations": 1, "feasible": result["feasible"]},
                {"comp_s": t["solve_s"], **t})

    def admm():
        res, doc, t = _run_admm(part, cfg)
        return ({"algorithm": "admm", "total_cost": doc["total_cost"],
                 "operations": doc["operations"],
                 "feasible": doc["converged"]},
                {"comp_s": t["loop_s"], **t})

    def adp(name, kind, mode):
        res, doc, t = _run_adp(part, cfg, model_kind=kind, value_mode=mode)
        return ({"algorithm": name, "total_cost": doc["total_cost"],
                 "operations": doc["operations"],
                 "feasible": doc["feasible"]},
                {"comp_s": t["coordination_s"], **t})

    attempt("centralized", centralized)
    attempt("admm", admm)
    for name, kind, mode in COMPARE_VARIANTS:
        attempt(name, lambda n=name, k=kind, m=mode: adp(n, k, m))
    return rows, timing


def _format_table(rows, timing) -> str:
    header = ("Algorithm", "Total Cost", "# Operations", "Comp. Time",
              "Feasible")
    body = []
    for row in rows:
        cost = "failed" if row["total_cost"] is None \
            else f"{row['total_cost']:.4f}"
        ops = "-" if row["operations"] is None else str(row["operations"])
        secs = timing[row["algorithm"]].get("comp_s", 0.0)
        body.append((row["algorithm"], cost, ops, f"{secs:.4f} s",
                     str(bool(row["feasible"]))))
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines)


def export_report(rows, timing, out_dir, config_doc) -> tuple:
    """CSV + JSON files; all wall-clock data stays in the timing block."""
    csv_path = os.path.join(out_dir, "compare.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            cost = "" if row["total_cost"] is None \
                else repr(float(row["total_cost"]))
            ops = "" if row["operations"] is None else str(row["operations"])
            secs = timing[row["algorithm"]].get("comp_s", 0.0)
            fh.write(f"{row['algorithm']},{cost},{ops},{secs!r},"
                     f"{str(bool(row['feasible'])).lower()}\n")
    json_path = os.path.join(out_dir, "compare.json")
    _write_json(json_path, {"config": config_doc, "rows": rows,
                            "timing": {**timing,
                                       "generated_at": _now_iso()}})
    return csv_path, json_path


def cmd_compare(cfg: RunConfig) -> int:
    part = _load_partition(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    rows, timing = _compare_rows(part, cfg)
    print(_format_table(rows, timing))
    csv_path, json_path = export_report(rows, timing, cfg.out,
                                        cfg.public_dict())
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if all(row["feasible"] for row in rows):
        return EXIT_OK
    return EXIT_DECLARED


def cmd_project_for(cfg: RunConfig) -> int:
    part = _load_partition(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    alias = _model_alias(cfg.for_model)
    any_empty = False
    for case, link in zip(part.dsos, part.links):
        index = link.dso_index
        try:
            model = build_dso_model(case, link, cfg.for_model)
            region = coupling_region(model)
            verts = vertices_2d(slice_fix(region, 2, cfg.nu))
        except (EmptyRegion, RowExplosion) as exc:
            print(f"dso {index}: empty region at nu={cfg.nu:g} ({exc})")
            any_empty = True
            continue
        path = os.path.join(cfg.out, f"for_dso{index}_{alias}.csv")
        csv_path, sidecar = write_polygon_csv(path, verts, dso_index=index,
                                              nu_value=cfg.nu,
                                              model_kind=cfg.for_model)
        print(f"dso {index}: {len(verts)} vertices -> {csv_path}")
    return EXIT_DECLARED if any_empty else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridcoord",
                     description="TSO-DSO coordination benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--benchmark", action="store_true",
                       help="use the built-in study system")
        p.add_argument("--tso", help="transmission case file")
        p.add_argument("--dso", action="append", default=[],
                       metavar="[TSOBUS[:ROOTBUS]=]FILE",
                       help="feeder case file; repeatable")
        p.add_argument("--out", default=".", help="output directory")

    rho_help = f"ADMM starting penalty weight (default {DEFAULT_RHO:g})"
    run = sub.add_parser("run", help="run one method")
    run.add_argument("method", choices=METHODS)
    add_shared(run)
    run.add_argument("--for-model", choices=MODEL_CHOICES, default=None)
    run.add_argument("--value-fn", choices=VALUE_FN_CHOICES, default=None)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--weight", type=float, default=None)
    run.add_argument("--rho", type=float, default=None, help=rho_help)
    run.add_argument("--tol", type=float, default=None)
    run.add_argument("--max-iter", type=int, default=None)

    comp = sub.add_parser("compare", help="run all six methods")
    add_shared(comp)
    comp.add_argument("--samples", type=int, default=None)
    comp.add_argument("--seed", type=int, default=None)
    comp.add_argument("--weight", type=float, default=None)
    comp.add_argument("--rho", type=float, default=None, help=rho_help)
    comp.add_argument("--tol", type=float, default=None)
    comp.add_argument("--max-iter", type=int, default=None)

    proj = sub.add_parser("project-for", help="export FOR polygon slices")
    add_shared(proj)
    proj.add_argument("--for-model", choices=MODEL_CHOICES, default=None)
    proj.add_argument("--nu", type=float, default=None,
                      help="squared voltage at which to slice (default 1.0)")
    return parser


def _to_config(args) -> RunConfig:
    method = getattr(args, "method", "")
    if args.command == "run":
        allowed = _METHOD_FLAGS[method]
        for flag in ("for_model", "value_fn", "samples", "seed", "weight",
                     "rho", "tol", "max_iter"):
            if getattr(args, flag, None) is not None and flag not in allowed:
                raise ValueError(
                    f"--{flag.replace('_', '-')} is not valid for "
                    f"method {method!r}")

    def pick(name, default):
        value = getattr(args, name, None)
        return default if value is None else value

    for_model = pick("for_model", "loss_linearized")
    return RunConfig(
        command=args.command,
        method=method,
        benchmark=args.benchmark,
        tso=args.tso,
        dsos=tuple(args.dso),
        for_model=normalize_model_kind(for_model),
        value_fn=pick("value_fn", "quadratic"),
        samples=pick("samples", DEFAULT_SAMPLES),
        seed=pick("seed", 0),
        weight=pick("weight", DEFAULT_PENALTY_WEIGHT),
        rho=pick("rho", DEFAULT_RHO),
        tol=pick("tol", DEFAULT_TOL),
        max_iter=pick("max_iter", DEFAULT_MAX_ITER),
        nu=pick("nu", 1.0),
        out=args.out,
    )


def _setup_logging() -> None:
    level_name = os.environ.get("GRIDCOORD_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        sys.stderr.write(f"warning: GRIDCOORD_LOG={level_name!r} unknown; "
                         "using 'error'\n")
        level_name = "error"
    logging.basicConfig(level=levels[level_name], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _to_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_project_for(cfg)
    except (CoordinationError,) as exc:
        sys.stderr.write(f"declared failure: {exc}\n")
        return EXIT_DECLARED
    except (gm.ParseError, gm.ValidationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
