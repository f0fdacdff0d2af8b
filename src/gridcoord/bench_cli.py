"""Command-line front end: run one method, compare all six, export FORs.

Subcommands
  run centralized|admm|adp   one method on the benchmark or custom cases,
                             result JSON to --out
  compare                    centralized + ADMM + the four two-sweep
                             variants; aligned table, CSV, and JSON
  project-for                per-DSO feasible-region slice at fixed nu as
                             a CCW polygon CSV with JSON sidecar

Exit codes: 0 success; 2 a declared failure: infeasibility,
non-convergence, an empty region or a row explosion, in `run` as in
`compare`, whose reports still carry the failed method with feasible
false, a null cost and, when it ended on an exception, its error; 1
anything else (usage or input errors).  Logging level
via GRIDCOORD_LOG (error, info, debug).

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
from dataclasses import asdict, dataclass, replace

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

# flags each method may set beyond the shared case/output group, and the
# order in which `run` checks them
_RUN_FLAGS = ("for_model", "value_fn", "samples", "seed", "weight", "rho",
              "tol", "max_iter")
_METHOD_FLAGS = {
    "centralized": {"for_model"},
    "admm": {"for_model", "rho", "tol", "max_iter"},
    "adp": {"for_model", "value_fn", "samples", "seed", "weight"},
}

# the six comparison rows, in report order: (row name, method, model,
# value function); reference, consensus, then per-model pairs with the flat
# value function before the fitted one
COMPARE_ROWS = (("centralized", "centralized", "loss_linearized", "none"),
                ("admm", "admm", "loss_linearized", "none"),
                ("adp_ll_none", "adp", "loss_linearized", "none"),
                ("adp_ll_quadratic", "adp", "loss_linearized", "quadratic"),
                ("adp_ldf_none", "adp", "lindistflow", "none"),
                ("adp_ldf_quadratic", "adp", "lindistflow", "quadratic"))
# failures a run declares: exit 2 from `run`, a flagged row in `compare`
DECLARED = (CoordinationError, EmptyRegion, RowExplosion)
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


def _run_method(part, cfg: RunConfig):
    """Run cfg.method on the partition.

    Returns (result document, timing block, coordination-stage seconds,
    the AdmmResult or None); centralized counts one operation.
    """
    if cfg.method == "centralized":
        t0 = time.perf_counter()
        prob = assemble_centralized(part, cfg.for_model)
        t1 = time.perf_counter()
        sol = solve_qp(prob.qp)
        t2 = time.perf_counter()
        feasible = sol.status == OPTIMAL
        doc = {"algorithm": "centralized", "model": cfg.for_model,
               "status": sol.status, "feasible": feasible,
               "total_cost": float(sol.objective) if feasible else None,
               "operations": 1,
               "interfaces": _interfaces(prob.tso, sol.x[prob.offsets[0]:],
                                         part.links)}
        return (doc, {"setup_s": t1 - t0, "solve_s": t2 - t1,
                      "total_s": t2 - t0}, t2 - t1, None)
    if cfg.method == "admm":
        res = run_admm(part, cfg.for_model, rho=cfg.rho, tol=cfg.tol,
                       max_iter=cfg.max_iter)
        doc = res.to_dict()
        timing = doc.pop("timing")
        doc.update(model=cfg.for_model, feasible=doc["converged"])
        return doc, timing, timing["loop_s"], res
    config = AdpConfig(model_kind=cfg.for_model,
                       value_mode=_VALUE_MODE[cfg.value_fn],
                       n_samples=cfg.samples, seed=cfg.seed, weight=cfg.weight)
    res = run_fp_adp(part, config)
    doc = res.to_dict()
    stages = doc.pop("timings")
    doc.update(total_cost=res.total_cost, model=config.model_kind,
               value_mode=config.value_mode)
    setup_s = stages["backward_sweep"]
    comp_s = stages["total"] - setup_s
    return (doc, {"setup_s": setup_s, "coordination_s": comp_s,
                  "total_s": stages["total"], "stages": stages}, comp_s, None)


def _declared(name: str, exc: Exception) -> dict:
    """The result of a method that ended on a declared failure."""
    return {"algorithm": name, "total_cost": None, "operations": None,
            "feasible": False, "error": str(exc)}


def cmd_run(cfg: RunConfig) -> int:
    part = _load_partition(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    try:
        result, timing, _, admm = _run_method(part, cfg)
    except DECLARED as exc:
        sys.stderr.write(f"declared failure: {exc}\n")
        result, timing, admm = _declared(cfg.method, exc), {}, None
    if admm is not None:
        write_history_csv(os.path.join(cfg.out, "admm_history.csv"), admm)
    doc = {"config": cfg.public_dict(), "result": result,
           "timing": {**timing, "generated_at": _now_iso()}}
    path = _write_json(os.path.join(cfg.out, f"run_{cfg.method}.json"), doc)
    cost, ok = result["total_cost"], result["feasible"]
    cost_text = "n/a" if cost is None else f"{cost:.6f}"
    print(f"{cfg.method}: total_cost={cost_text} "
          f"operations={result['operations']} feasible={ok}")
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_DECLARED


def _compare_rows(part, cfg: RunConfig):
    """All six comparison runs; failures become flagged rows."""
    rows, timing = [], {}
    for name, method, model, value_fn in COMPARE_ROWS:
        try:
            doc, t, comp_s, _ = _run_method(part, replace(
                cfg, method=method, for_model=model, value_fn=value_fn))
            row = {"algorithm": name, "total_cost": doc["total_cost"],
                   "operations": doc["operations"],
                   "feasible": doc["feasible"]}
            t = {"comp_s": comp_s, **t}
        except (*DECLARED, gm.ValidationError) as exc:
            logger.warning("%s failed: %s", name, exc)
            row = _declared(name, exc)
            t = {"total_s": 0.0}
        rows.append(row)
        timing[name] = t
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
    return EXIT_OK if all(row["feasible"] for row in rows) else EXIT_DECLARED


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
        except DECLARED as exc:
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
    """A flag left out stays out of the namespace, so RunConfig's defaults
    are the only ones."""
    def flags():
        return argparse.ArgumentParser(add_help=False,
                                       argument_default=argparse.SUPPRESS)

    case = flags()
    case.add_argument("--benchmark", action="store_true",
                      help="use the built-in study system")
    case.add_argument("--tso", help="transmission case file")
    case.add_argument("--dso", action="append", dest="dsos",
                      metavar="[TSOBUS[:ROOTBUS]=]FILE",
                      help="feeder case file; repeatable")
    case.add_argument("--out", help="output directory")
    model = flags()
    model.add_argument("--for-model", choices=MODEL_CHOICES)
    tuning = flags()
    tuning.add_argument("--samples", type=int)
    tuning.add_argument("--seed", type=int)
    tuning.add_argument("--weight", type=float)
    tuning.add_argument("--rho", type=float, help="ADMM starting penalty "
                        f"weight (default {RunConfig.rho:g})")
    tuning.add_argument("--tol", type=float)
    tuning.add_argument("--max-iter", type=int)

    parser = _Parser(prog="gridcoord",
                     description="TSO-DSO coordination benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one method",
                         parents=[case, model, tuning],
                         argument_default=argparse.SUPPRESS)
    run.add_argument("method", choices=METHODS)
    run.add_argument("--value-fn", choices=VALUE_FN_CHOICES)
    sub.add_parser("compare", help="run all six methods",
                   parents=[case, tuning])
    proj = sub.add_parser("project-for", help="export FOR polygon slices",
                          parents=[case, model],
                          argument_default=argparse.SUPPRESS)
    proj.add_argument("--nu", type=float, help="squared voltage at which "
                      f"to slice (default {RunConfig.nu})")
    return parser


def _to_config(args) -> RunConfig:
    given = dict(vars(args))
    if args.command == "run":
        for flag in _RUN_FLAGS:
            if flag in given and flag not in _METHOD_FLAGS[args.method]:
                raise ValueError(
                    f"--{flag.replace('_', '-')} is not valid for "
                    f"method {args.method!r}")
    if "dsos" in given:
        given["dsos"] = tuple(given["dsos"])
    if "for_model" in given:
        given["for_model"] = normalize_model_kind(given["for_model"])
    return RunConfig(**given)


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
        return {"run": cmd_run, "compare": cmd_compare,
                "project-for": cmd_project_for}[cfg.command](cfg)
    except DECLARED as exc:
        sys.stderr.write(f"declared failure: {exc}\n")
        return EXIT_DECLARED
    except (gm.ParseError, gm.ValidationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
