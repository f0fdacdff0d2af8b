"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function of each gridcoord module
(one module is one layer) and rebinds the wrapper wherever a gridcoord
module holds the original, so calls made through `from .x import f` are
seen as well.  `CommLog.begin_round` and `CommLog.send` are wrapped on the
class.  Each call becomes a span (layer, function, start, end, parent)
kept in memory; `layer_metrics` rolls the spans of one pass up into the
per-layer numbers the benchmark reports.  Nothing in the program changes,
and `uninstall()` puts every original back.

A `solve_qp` call is charged to the innermost enclosing span of another
layer: the projection's LPs, the value function's pinned samples, the
ADMM subproblems.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("grid_model", "opt_core", "powerflow_models", "projection",
          "value_function", "adp_coordinator", "admm_coordinator",
          "messaging")

_MODEL_BUILDS = ("build_dc_model", "build_dso_model")
_BUILD_SPANS = _MODEL_BUILDS + ("assemble_centralized",)


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "info")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _charge(parent):
    """Layer of the innermost enclosing span outside opt_core."""
    while parent is not None and parent.layer == "opt_core":
        parent = parent.parent
    return parent.layer if parent is not None else None


def _solve_info(args, kwargs, result):
    qp = args[0] if args else kwargs["qp"]
    return {"iterations": int(result.iterations),
            "kkt_dim": int(qp.n + qp.b_eq.size + qp.b_ineq.size)}


def _projection_info(args, kwargs, result):
    return {"rows": int(result.n_rows)}


def _samples_info(args, kwargs, result):
    return {"samples": len(result)}


def _adp_info(args, kwargs, result):
    return {"renegotiated": bool(result.renegotiated)}


def _admm_info(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _send_info(args, kwargs, result):
    return {"floats": int(result.payload_floats)}


_INFO = {("opt_core", "solve_qp"): _solve_info,
         ("projection", "coupling_region"): _projection_info,
         ("value_function", "sample_value_function"): _samples_info,
         ("adp_coordinator", "run_fp_adp"): _adp_info,
         ("admm_coordinator", "run_admm"): _admm_info,
         ("messaging", "send"): _send_info}


class Tracer:
    def __init__(self):
        self.spans = []
        self._current = None
        self._undo = []  # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        info = _INFO.get((layer, name))
        is_projection = (layer, name) == ("projection", "coupling_region")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self._current)
            if is_projection and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            self.spans.append(span)
            self._current = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._current = span.parent
            if info is not None:
                span.info = info(args, kwargs, result)
                if is_projection:
                    span.info.update(kwargs["stats"])
            return result

        return traced

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"gridcoord.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        comm_log = modules["messaging"].CommLog
        for name in ("begin_round", "send"):
            original = getattr(comm_log, name)
            self._undo.append((comm_log, name, original))
            setattr(comm_log, name, self._wrap("messaging", name, original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def take(self) -> list:
        """The spans recorded since the last call, oldest first."""
        spans, self.spans = self.spans, []
        return spans


def _entered(spans, layer, names=None):
    """Spans where control enters `layer` (or one of `names` in it)."""
    out = []
    for s in spans:
        if s.layer != layer or (names is not None and s.name not in names):
            continue
        p = s.parent
        while p is not None and not (p.layer == layer and (
                names is None or p.name in names)):
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _seconds(spans, layer, names=None) -> float:
    return sum(s.duration for s in _entered(spans, layer, names))


def _named(spans, layer, name):
    return [s for s in spans if s.layer == layer and s.name == name]


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one pass of the six rows."""
    solves = _named(spans, "opt_core", "solve_qp")
    charged = {}
    for s in solves:
        charged.setdefault(_charge(s.parent), []).append(s)

    def iterations(group):
        return sum(s.info["iterations"] for s in group)

    solve_s = _seconds(spans, "opt_core")
    ipm = iterations(solves)
    regions = _named(spans, "projection", "coupling_region")
    samples = _named(spans, "value_function", "sample_value_function")
    adp = _named(spans, "adp_coordinator", "run_fp_adp")
    admm = _named(spans, "admm_coordinator", "run_admm")
    admm_iters = sum(s.info["iterations"] for s in admm)
    sends = _named(spans, "messaging", "send")
    proj_solves = charged.get("projection", [])
    vf_solves = charged.get("value_function", [])
    return {
        "opt_core.solves": len(solves),
        "opt_core.ipm_iterations": ipm,
        "opt_core.solve_s": solve_s,
        "opt_core.ms_per_iteration": 1e3 * solve_s / max(ipm, 1),
        "opt_core.max_kkt_dim": max((s.info["kkt_dim"] for s in solves),
                                    default=0),
        "powerflow_models.builds": sum(
            len(_named(spans, "powerflow_models", n)) for n in _MODEL_BUILDS),
        "powerflow_models.build_s": _seconds(spans, "powerflow_models",
                                             _BUILD_SPANS),
        "powerflow_models.attach_calls": len(_named(
            spans, "powerflow_models", "attach_quadratic_cost")),
        "powerflow_models.attach_s": _seconds(
            spans, "powerflow_models", ("attach_quadratic_cost",)),
        "projection.calls": len(regions),
        "projection.s": _seconds(spans, "projection", ("coupling_region",)),
        "projection.lps": len(proj_solves),
        "projection.lp_iterations": iterations(proj_solves),
        "projection.fm_steps": sum(s.info["fm_steps"] for s in regions),
        "projection.max_rows": max((s.info["max_rows"] for s in regions),
                                   default=0),
        "projection.for_rows": sum(s.info["rows"] for s in regions),
        "value_function.samples": sum(s.info["samples"] for s in samples),
        "value_function.sample_s": _seconds(
            spans, "value_function", ("sample_value_function",)),
        "value_function.solves": len(vf_solves),
        "value_function.ipm_iterations": iterations(vf_solves),
        "value_function.fit_s": _seconds(spans, "value_function",
                                         ("fit_quadratic",)),
        "adp_coordinator.backward_sweep_s": _seconds(
            spans, "adp_coordinator", ("backward_sweep",)),
        "adp_coordinator.coordination_s": _seconds(
            spans, "adp_coordinator", ("run_fp_adp",)) - _seconds(
            spans, "adp_coordinator", ("backward_sweep",)),
        "adp_coordinator.disaggregate_s": _seconds(
            spans, "adp_coordinator", ("disaggregate",)),
        "adp_coordinator.renegotiations": sum(
            s.info["renegotiated"] for s in adp),
        "admm_coordinator.iterations": admm_iters,
        "admm_coordinator.tso_step_s": _seconds(
            spans, "admm_coordinator", ("tso_step",)),
        "admm_coordinator.dso_step_s": _seconds(
            spans, "admm_coordinator", ("dso_step",)),
        "admm_coordinator.solves": len(charged.get("admm_coordinator", [])),
        "admm_coordinator.ms_per_round": 1e3 * _seconds(
            spans, "admm_coordinator", ("run_admm",)) / max(admm_iters, 1),
        "messaging.rounds": len(_named(spans, "messaging", "begin_round")),
        "messaging.messages": len(sends),
        "messaging.floats": sum(s.info["floats"] for s in sends),
    }


def setup_metrics(spans) -> dict:
    return {"grid_model.build_s": _seconds(spans, "grid_model")}


def span_records(spans) -> list:
    """JSON-ready spans: index, parent index, layer, function, times, info."""
    index = {id(s): k for k, s in enumerate(spans)}
    return [{"id": k, "parent": index.get(id(s.parent)), "layer": s.layer,
             "name": s.name, "start": s.start, "end": s.end,
             **({"info": s.info} if s.info else {})}
            for k, s in enumerate(spans)]
