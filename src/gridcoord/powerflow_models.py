"""Turn grid cases into polyhedral optimization models.

Three convex network models are supported: a DC model for the meshed
transmission grid (angles, lossless), a LinDistFlow model for radial feeders
(branch active/reactive flows and squared voltage magnitudes, lossless), and
a loss-linearized LinDistFlow variant whose active-power balances carry
first-order Taylor loss terms around an operating point.

Every model exposes the same structure: a QuadraticProgram over named column
slots, with the interface quantities (p_if, q_if, nu_if) per interconnection
held in a dedicated coupling slot so they can be projected, priced, pinned,
or tied to a neighboring subsystem.

Conventions: coupling p_if/q_if are the powers delivered from the
transmission grid into the feeder head; branch flows in radial models are
the delivered (receiving-end) quantities, and each bus's active balance pays
the linearized losses of its outgoing lines, charging them to the sending
end. Voltage variables are squared magnitudes.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .grid_model import GridCase, ValidationError, Violation, walk
from .opt_core import QuadraticProgram

log = logging.getLogger(__name__)

DEFAULT_INTERFACE_RATING = 10.0

MODEL_DC = "dc"
MODEL_LINDISTFLOW = "lindistflow"
MODEL_LOSS_LINEARIZED = "loss_linearized"

_ALIASES = {
    "ldf": MODEL_LINDISTFLOW,
    "ll": MODEL_LOSS_LINEARIZED,
    MODEL_DC: MODEL_DC,
    MODEL_LINDISTFLOW: MODEL_LINDISTFLOW,
    MODEL_LOSS_LINEARIZED: MODEL_LOSS_LINEARIZED,
}


def normalize_model_kind(kind: str) -> str:
    try:
        return _ALIASES[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None


@dataclass(frozen=True)
class VarIndexMap:
    """Named column slots over disjoint ranges covering 0..n."""

    slots: tuple  # of (name, start, stop)
    labels: tuple  # one label per column
    n_links: int = 0

    @property
    def n(self) -> int:
        return len(self.labels)

    def span(self, name: str) -> range:
        for nm, a, b in self.slots:
            if nm == name:
                return range(a, b)
        return range(0)

    def coupling_triple(self, slot: int = 0) -> tuple:
        """Columns of (p_if, q_if, nu_if) for the slot-th interconnection."""
        sp = self.span("coupling")
        if 3 * slot + 3 > len(sp):
            raise KeyError(f"no coupling triple {slot}")
        a = sp.start + 3 * slot
        return (a, a + 1, a + 2)


class _Layout:
    def __init__(self):
        self.slots = []
        self.labels = []

    def add(self, name, labels):
        a = len(self.labels)
        self.labels.extend(labels)
        self.slots.append((name, a, len(self.labels)))
        return np.arange(a, len(self.labels))

    def freeze(self, n_links=0):
        return VarIndexMap(tuple(self.slots), tuple(self.labels), n_links)


@dataclass(frozen=True)
class OperatingPoint:
    """Base point for loss linearization.

    flow_p/flow_q follow the case's line order, oriented toward the child
    (away from the feeder root); nu follows the case's bus order.
    """

    flow_p: tuple
    flow_q: tuple
    nu: tuple

    def __post_init__(self):
        object.__setattr__(self, "flow_p", tuple(float(v) for v in self.flow_p))
        object.__setattr__(self, "flow_q", tuple(float(v) for v in self.flow_q))
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))


@dataclass(frozen=True)
class PolyhedralModel:
    qp_skeleton: QuadraticProgram
    vmap: VarIndexMap
    operating_point: OperatingPoint | None
    kind: str
    case: GridCase
    links: tuple


def _fields(items, *names):
    """One float array per field name, with one entry per item."""
    return [np.fromiter(map(attrgetter(nm), items), float, len(items))
            for nm in names]


def _gen_cost_terms(case, n, gp):
    H = np.zeros((n, n))
    g = np.zeros(n)
    a2, a1 = _fields(case.gens, "cost_a2", "cost_a1")
    H[gp, gp] = 2.0 * a2
    g[gp] = a1
    return H, g, sum((gen.cost_a0 for gen in case.gens), 0.0)


def _pairs(R, hi, lo):
    """Rows R x <= hi and -R x <= -lo, each row of R next to its negation."""
    A = np.empty((2 * len(R), R.shape[1]))
    A[0::2], A[1::2] = R, -R
    b = np.empty(2 * len(R))
    b[0::2], b[1::2] = hi, -lo
    return A, b


def _boxes(n, cols, hi, lo):
    """lo <= x_c <= hi for each column c of cols, as `_pairs` rows."""
    E = np.zeros((len(cols), n))
    E[np.arange(len(cols)), cols] = 1.0
    return _pairs(E, hi, lo)


def build_dc_model(case: GridCase, couplings=(),
                   interface_rating: float = DEFAULT_INTERFACE_RATING) -> PolyhedralModel:
    """Lossless DC model: angle variables, nodal balances, rated line flows.

    The balances are B theta - gen_p + p_if = -load, with B = C'diag(1/x)C
    the bus susceptance matrix of the line-bus incidence C; a rated line
    carries -s_max <= diag(1/x)C theta <= s_max.  Each interconnection
    contributes a coupling triple: its p_if enters the interface bus balance
    as a load, q_if is box-bounded by the interface rating (the DC model
    carries no reactive physics), and nu_if is pinned to 1.0 since the
    model carries no voltage magnitudes either.
    """
    couplings = tuple(couplings)
    bidx = case.bus_index()
    for k, ln in enumerate(case.lines):
        if ln.x <= 0:
            raise ValidationError([Violation(
                "nonpositive_reactance", f"line {k} ({ln.from_bus}-{ln.to_bus})")])
    for lk in couplings:
        if lk.tso_bus not in bidx:
            raise ValidationError([Violation("unknown_bus", f"bus {lk.tso_bus}",
                                             "interconnection")])

    lay = _Layout()
    gp = lay.add("gen_p", [f"gen_p:{g.bus}#{k}" for k, g in enumerate(case.gens)])
    th = lay.add("theta", [f"theta:{b.id}" for b in case.buses])
    cp = lay.add("coupling", [f"{nm}:{lk.dso_index}" for lk in couplings
                              for nm in ("p_if", "q_if", "nu_if")])
    vmap = lay.freeze(len(couplings))
    n, nb, nc = vmap.n, len(case.buses), len(couplings)
    f = np.array([bidx[ln.from_bus] for ln in case.lines], dtype=int)
    t = np.array([bidx[ln.to_bus] for ln in case.lines], dtype=int)
    x, s_max = _fields(case.lines, "x", "s_max")
    sus = 1.0 / x
    c_p, c_q, c_nu = cp[0::3], cp[1::3], cp[2::3]

    # balances, slack angle, pinned nu_if; np.add.at accumulates B line by
    # line, so each entry sums in line order
    A_eq = np.zeros((nb + 1 + nc, n))
    np.add.at(A_eq, (np.array((f, f, t, t)).T.ravel(),
                     th[np.array((f, t, t, f)).T.ravel()]),
              np.array((sus, -sus, sus, -sus)).T.ravel())
    A_eq[[bidx[gen.bus] for gen in case.gens], gp] = -1.0
    A_eq[[bidx[lk.tso_bus] for lk in couplings], c_p] = 1.0
    A_eq[nb, th[bidx[case.slack_id()]]] = 1.0
    A_eq[nb + 1 + np.arange(nc), c_nu] = 1.0
    b_eq = np.concatenate([-_fields(case.buses, "p_load")[0], [0.0], np.ones(nc)])

    rated = np.flatnonzero(s_max > 0)
    flows = np.zeros((rated.size, n))
    flows[np.arange(rated.size), th[f[rated]]] = sus[rated]
    flows[np.arange(rated.size), th[t[rated]]] = -sus[rated]
    A_in, b_in = _pairs(flows, s_max[rated], -s_max[rated])
    p_max, p_min = _fields(case.gens, "p_max", "p_min")
    rating = np.full(2 * nc, interface_rating)
    A_box, b_box = _boxes(n, np.concatenate([gp, np.array((c_p, c_q)).T.ravel()]),
                          np.concatenate([p_max, rating]),
                          np.concatenate([p_min, -rating]))

    H, g, c0 = _gen_cost_terms(case, n, gp)
    qp = QuadraticProgram(H, g, np.concatenate([A_in, A_box]),
                          np.concatenate([b_in, b_box]), A_eq, b_eq, c0)
    log.debug("dc model: %d vars, %d eq, %d ineq", n, b_eq.size, qp.b_ineq.size)
    return PolyhedralModel(qp, vmap, None, MODEL_DC, case, couplings)


def _feeder_tree(case, root):
    """The walk of a feeder from its root bus (`walk`) and the parent and
    child bus position of each line.  Raises unless the case is a tree."""
    bidx = case.bus_index()
    if root not in bidx:
        raise ValidationError([Violation("unknown_bus", f"bus {root}", "feeder root")])
    w = walk(case.buses, case.lines, root)
    if w.reached != len(case.buses) or len(case.lines) != len(case.buses) - 1:
        raise ValidationError([Violation(
            "not_radial", "case", "not a tree rooted at the interface bus")])
    below = np.array(w.order[1:], dtype=int)  # every bus but the root
    child = np.empty(len(case.lines), dtype=int)
    child[np.array(w.line)[below]] = below
    ends = np.array([bidx[ln.from_bus] + bidx[ln.to_bus] for ln in case.lines],
                    dtype=int)
    return w, ends - child, child


def loss_coefficients(r, p0, q0, nu0):
    """First-order Taylor coefficients of the line loss r (P^2 + Q^2) / nu.

    Returns (alpha, beta, gamma) with loss ~ alpha P + beta Q + gamma; the
    denominator is frozen at the sending-end base voltage nu0.  The
    arguments may be arrays, one entry a line.
    """
    if np.any(np.asarray(nu0) <= 0):
        raise ValidationError([Violation("nonpositive_voltage_bound",
                                         "operating point")])
    alpha = 2.0 * r * p0 / nu0
    beta = 2.0 * r * q0 / nu0
    gamma = -r * (p0 * p0 + q0 * q0) / nu0
    return alpha, beta, gamma


def _build_radial(case, link, op):
    w, par, child = _feeder_tree(case, link.dso_root_bus)
    root = w.order[0]
    nb, nl = len(case.buses), len(case.lines)

    lay = _Layout()
    gp = lay.add("gen_p", [f"gen_p:{g.bus}#{k}" for k, g in enumerate(case.gens)])
    gq = lay.add("gen_q", [f"gen_q:{g.bus}#{k}" for k, g in enumerate(case.gens)])
    nu = lay.add("nu", [f"nu:{b.id}" for b in case.buses])
    fp = lay.add("flow_p", [f"flow_p:{ln.from_bus}-{ln.to_bus}" for ln in case.lines])
    fq = lay.add("flow_q", [f"flow_q:{ln.from_bus}-{ln.to_bus}" for ln in case.lines])
    lay.add("coupling", [f"{nm}:{link.dso_index}" for nm in ("p_if", "q_if", "nu_if")])
    vmap = lay.freeze(1)
    n = vmap.n
    c_p, c_q, c_nu = vmap.coupling_triple(0)
    r, x, s_max = _fields(case.lines, "r", "x", "s_max")

    if op is not None:
        if len(op.flow_p) != nl or len(op.flow_q) != nl or len(op.nu) != nb:
            raise ValidationError([Violation("dimension_mismatch", "operating point")])
        for i, b in enumerate(case.buses):
            if not (b.v2_min - 1e-9 <= op.nu[i] <= b.v2_max + 1e-9):
                raise ValidationError([Violation(
                    "voltage_bound", f"bus {b.id}",
                    f"base point nu {op.nu[i]:.4f} outside band")])
        alpha, beta, gamma = loss_coefficients(
            r, np.array(op.flow_p), np.array(op.flow_q), np.array(op.nu)[par])
    else:
        alpha = beta = gamma = np.zeros(nl)

    # Active balance: delivered parent flow + local generation covers the bus
    # load, onward child flows, and the child lines' linearized loss; the
    # reactive balance is lossless.  Rows interleave per bus.
    bidx = case.bus_index()
    gen_at = [bidx[gen.bus] for gen in case.gens]
    P, Q = np.zeros((nb, n)), np.zeros((nb, n))
    P[root, c_p] = Q[root, c_q] = 1.0
    P[child, fp] = Q[child, fq] = 1.0
    P[gen_at, gp] = Q[gen_at, gq] = 1.0
    P[par, fp] = -(1.0 + alpha)
    P[par, fq] -= beta
    Q[par, fq] = -1.0
    p_load, q_load, v2_min, v2_max = _fields(
        case.buses, "p_load", "q_load", "v2_min", "v2_max")
    np.add.at(p_load, par, gamma)

    # Voltage drop along each line, then the root voltage as nu_if.
    V = np.zeros((nl + 1, n))
    lines = np.arange(nl)
    V[lines, nu[child]] = 1.0
    V[lines, nu[par]] = -1.0
    V[lines, fp] = 2.0 * r
    V[lines, fq] = 2.0 * x
    V[nl, [nu[root], c_nu]] = 1.0, -1.0

    A_eq = np.empty((2 * nb, n))
    A_eq[0::2], A_eq[1::2] = P, Q
    b_eq = np.empty(2 * nb)
    b_eq[0::2], b_eq[1::2] = p_load, q_load

    rated = np.flatnonzero(s_max > 0)
    s_max = np.repeat(s_max[rated], 2)
    p_max, p_min, q_max, q_min = _fields(case.gens, "p_max", "p_min",
                                         "q_max", "q_min")
    A_in, b_in = _boxes(
        n, np.concatenate([nu, gp, gq, np.array((fp[rated], fq[rated])).T.ravel()]),
        np.concatenate([v2_max, p_max, q_max, s_max]),
        np.concatenate([v2_min, p_min, q_min, -s_max]))

    H, g, c0 = _gen_cost_terms(case, n, gp)
    qp = QuadraticProgram(H, g, A_in, b_in, np.concatenate([A_eq, V]),
                          np.concatenate([b_eq, np.zeros(nl + 1)]), c0)
    kind = MODEL_LINDISTFLOW if op is None else MODEL_LOSS_LINEARIZED
    log.debug("%s model: %d vars, %d eq, %d ineq", kind, n, qp.b_eq.size,
              qp.b_ineq.size)
    return PolyhedralModel(qp, vmap, op, kind, case, (link,))


def build_lindistflow_model(case: GridCase, link) -> PolyhedralModel:
    """Lossless LinDistFlow on a radial feeder.

    Per oriented line (parent -> child): the delivered flow covers the child
    bus's load, generation offset, and onward flows; squared voltage drops
    by 2 (r P + x Q). The feeder-head flows and root voltage form the
    coupling triple.
    """
    return _build_radial(case, link, None)


def build_loss_linearized_model(case: GridCase, link,
                                op: OperatingPoint) -> PolyhedralModel:
    """LinDistFlow plus first-order active-power loss terms around op."""
    if op is None:
        raise ValidationError([Violation("missing_operating_point", "model")])
    return _build_radial(case, link, op)


def default_operating_point(case: GridCase, link) -> OperatingPoint:
    """Idle-generator base point.

    The feeder head supplies the entire load through lossless flows at a
    root squared voltage of 1.0; generators sit at zero output. This keeps
    the base point well defined even for feeders that cannot balance
    themselves.
    """
    w, par, _ = _feeder_tree(case, link.dso_root_bus)
    par = par.tolist()
    children = [[] for _ in case.buses]
    for k, u in enumerate(par):
        children[u].append(k)
    fp = [0.0] * len(case.lines)
    fq = [0.0] * len(case.lines)
    for v in reversed(w.order[1:]):
        k, b = w.line[v], case.buses[v]
        fp[k] = b.p_load + sum(fp[m] for m in children[v])
        fq[k] = b.q_load + sum(fq[m] for m in children[v])
    nu = [1.0] * len(case.buses)
    for v in w.order[1:]:
        k, ln = w.line[v], case.lines[w.line[v]]
        nu[v] = nu[par[k]] - 2.0 * (ln.r * fp[k] + ln.x * fq[k])
    return OperatingPoint(tuple(fp), tuple(fq), tuple(nu))


def build_dso_model(case: GridCase, link, kind: str) -> PolyhedralModel:
    """Build a feeder model by kind name; the loss-linearized kind is taken
    around `default_operating_point`."""
    kind = normalize_model_kind(kind)
    if kind == MODEL_LINDISTFLOW:
        return build_lindistflow_model(case, link)
    if kind == MODEL_LOSS_LINEARIZED:
        return build_loss_linearized_model(
            case, link, default_operating_point(case, link))
    raise ValueError(f"not a feeder model kind: {kind!r}")


@dataclass(frozen=True)
class CentralizedProblem:
    """The stacked QP of a partition and the models it stacks.

    qp carries its blocks, the column offset of every subsystem (the same
    as `offsets`), so solve_qp reduces its equality rows one subsystem at a
    time plus one stage for the interface tie rows."""

    qp: QuadraticProgram
    tso: PolyhedralModel
    dsos: tuple
    offsets: tuple  # column offset per subsystem: tso first, then DSOs


def assemble_centralized(part,
                         dso_models="loss_linearized") -> CentralizedProblem:
    """Stack the transmission model and all feeder models into one QP.

    Per interconnection, the transmission-side coupling triple is tied to
    the feeder-side triple by equality; the objective is the plain sum of
    subsystem costs.  Rows come subsystem by subsystem, the tie rows last,
    and the QP carries the subsystems' column offsets as its blocks.
    """
    if isinstance(dso_models, str):
        dso_models = [dso_models] * len(part.dsos)
    if len(dso_models) != len(part.dsos):
        raise ValidationError([Violation("dimension_mismatch", "dso_models")])
    tso_model = build_dc_model(part.tso, part.links)
    dso_list = [build_dso_model(case, link, kind)
                for case, link, kind in zip(part.dsos, part.links, dso_models)]

    models = [tso_model] + dso_list
    qps = [m.qp_skeleton for m in models]
    offsets = np.cumsum([0] + [qp.n for qp in qps])
    n = int(offsets[-1])
    eq_at = np.cumsum([0] + [qp.b_eq.size for qp in qps])
    in_at = np.cumsum([0] + [qp.b_ineq.size for qp in qps])
    ties = 3 * len(dso_list)

    H = np.zeros((n, n))
    g = np.zeros(n)
    A_eq = np.zeros((eq_at[-1] + ties, n))
    A_in = np.zeros((in_at[-1], n))
    c0 = 0.0
    for k, qp in enumerate(qps):
        sl = slice(offsets[k], offsets[k + 1])
        H[sl, sl] = qp.H
        g[sl] = qp.g
        A_eq[eq_at[k]:eq_at[k + 1], sl] = qp.A_eq
        A_in[in_at[k]:in_at[k + 1], sl] = qp.A_ineq
        c0 += qp.c0
    tie_rows = eq_at[-1] + np.arange(ties)
    A_eq[tie_rows, [offsets[0] + c for k in range(len(dso_list))
                    for c in tso_model.vmap.coupling_triple(k)]] = 1.0
    A_eq[tie_rows, [offsets[1 + k] + c for k, dso in enumerate(dso_list)
                    for c in dso.vmap.coupling_triple(0)]] = -1.0
    b_eq = np.concatenate([qp.b_eq for qp in qps] + [np.zeros(ties)])

    offsets = tuple(int(o) for o in offsets[:-1])
    qp = QuadraticProgram(H, g, A_in, np.concatenate([qp.b_ineq for qp in qps]),
                          A_eq, b_eq, c0, blocks=offsets)
    return CentralizedProblem(qp, tso_model, tuple(dso_list), offsets)


def attach_quadratic_cost(model: PolyhedralModel, extra,
                          slot: int = 0) -> PolyhedralModel:
    """Non-mutating: add 0.5 z'Qz + c'z + d on a coupling triple's columns.

    extra carries fields Q (3x3), c (3,), d (scalar).  An equality
    reduction the skeleton carries is kept, updated by the Q term.
    """
    qp = model.qp_skeleton
    cols = list(model.vmap.coupling_triple(slot))
    H, g = qp.H.copy(), qp.g.copy()
    H[np.ix_(cols, cols)] += np.asarray(extra.Q, dtype=float)
    g[cols] += np.asarray(extra.c, dtype=float).ravel()
    red = qp.reduction.with_cost(cols, extra.Q) if qp.reduction is not None else None
    return replace(model, qp_skeleton=replace(
        qp, H=H, g=g, c0=qp.c0 + float(extra.d), reduction=red))


def pin_coupling(model: PolyhedralModel, z_by_slot) -> QuadraticProgram:
    """New QP with coupling triples fixed by equality rows.

    z_by_slot is a mapping slot -> 3-vector, or a single 3-vector for slot 0.
    """
    if not isinstance(z_by_slot, dict):
        z_by_slot = {0: z_by_slot}
    slots = sorted(z_by_slot)
    z = [np.asarray(z_by_slot[s], dtype=float).ravel() for s in slots]
    if any(v.size != 3 for v in z):
        raise ValueError("coupling value must be a 3-vector")
    qp = model.qp_skeleton
    cols = [c for s in slots for c in model.vmap.coupling_triple(s)]
    pins = np.zeros((len(cols), qp.n))
    pins[np.arange(len(cols)), cols] = 1.0
    return replace(qp, A_eq=np.concatenate([qp.A_eq, pins]),
                   b_eq=np.concatenate([qp.b_eq, *z]), reduction=None)
