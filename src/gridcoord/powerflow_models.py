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
from dataclasses import dataclass

import numpy as np

from .grid_model import GridCase, ValidationError, Violation
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
        return range(a, len(self.labels))

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


def _gen_cost_terms(case, n, gp_span):
    H = np.zeros((n, n))
    g = np.zeros(n)
    c0 = 0.0
    for k, gen in enumerate(case.gens):
        col = gp_span.start + k
        H[col, col] = 2.0 * gen.cost_a2
        g[col] = gen.cost_a1
        c0 += gen.cost_a0
    return H, g, c0


def _gen_boxes(case, n, span, lo_attr, hi_attr, rows, rhs):
    for k, gen in enumerate(case.gens):
        col = span.start + k
        row = np.zeros(n)
        row[col] = 1.0
        rows.append(row)
        rhs.append(getattr(gen, hi_attr))
        row = np.zeros(n)
        row[col] = -1.0
        rows.append(row)
        rhs.append(-getattr(gen, lo_attr))


def build_dc_model(case: GridCase, couplings=(),
                   interface_rating: float = DEFAULT_INTERFACE_RATING) -> PolyhedralModel:
    """Lossless DC model: angle variables, nodal balances, rated line flows.

    Each interconnection contributes a coupling triple: its p_if enters the
    interface bus balance as a load, q_if is box-bounded by the interface
    rating (the DC model carries no reactive physics), and nu_if is pinned
    to 1.0 since the model carries no voltage magnitudes either.
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
    lay.add("coupling", [f"{nm}:{lk.dso_index}" for lk in couplings
                         for nm in ("p_if", "q_if", "nu_if")])
    vmap = lay.freeze(len(couplings))
    n = vmap.n

    eq_rows, eq_rhs = [], []
    balance = [np.zeros(n) for _ in case.buses]
    for ln in case.lines:
        i, j = bidx[ln.from_bus], bidx[ln.to_bus]
        sus = 1.0 / ln.x
        balance[i][th.start + i] += sus
        balance[i][th.start + j] -= sus
        balance[j][th.start + j] += sus
        balance[j][th.start + i] -= sus
    for k, gen in enumerate(case.gens):
        balance[bidx[gen.bus]][gp.start + k] -= 1.0
    for kk, lk in enumerate(couplings):
        balance[bidx[lk.tso_bus]][vmap.coupling_triple(kk)[0]] += 1.0
    for i, b in enumerate(case.buses):
        eq_rows.append(balance[i])
        eq_rhs.append(-b.p_load)

    slack_row = np.zeros(n)
    slack_row[th.start + bidx[case.slack_id()]] = 1.0
    eq_rows.append(slack_row)
    eq_rhs.append(0.0)
    for kk in range(len(couplings)):
        row = np.zeros(n)
        row[vmap.coupling_triple(kk)[2]] = 1.0
        eq_rows.append(row)
        eq_rhs.append(1.0)

    in_rows, in_rhs = [], []
    for ln in case.lines:
        if ln.s_max <= 0:
            continue
        i, j = bidx[ln.from_bus], bidx[ln.to_bus]
        sus = 1.0 / ln.x
        row = np.zeros(n)
        row[th.start + i] = sus
        row[th.start + j] = -sus
        in_rows.append(row)
        in_rhs.append(ln.s_max)
        in_rows.append(-row)
        in_rhs.append(ln.s_max)
    _gen_boxes(case, n, gp, "p_min", "p_max", in_rows, in_rhs)
    for kk in range(len(couplings)):
        c_p, c_q, _ = vmap.coupling_triple(kk)
        for col in (c_p, c_q):
            row = np.zeros(n)
            row[col] = 1.0
            in_rows.append(row)
            in_rhs.append(interface_rating)
            in_rows.append(-row)
            in_rhs.append(interface_rating)

    H, g, c0 = _gen_cost_terms(case, n, gp)
    qp = QuadraticProgram(H, g, np.array(in_rows).reshape(-1, n), in_rhs,
                          np.array(eq_rows).reshape(-1, n), eq_rhs, c0)
    log.debug("dc model: %d vars, %d eq, %d ineq", n, len(eq_rhs), len(in_rhs))
    return PolyhedralModel(qp, vmap, None, MODEL_DC, case, couplings)


def _tree_structure(case, root):
    """Orient every line away from the root. Raises unless the case is a tree."""
    if root not in case.bus_index():
        raise ValidationError([Violation("unknown_bus", f"bus {root}", "feeder root")])
    adj = {b.id: [] for b in case.buses}
    for k, ln in enumerate(case.lines):
        adj[ln.from_bus].append((ln.to_bus, k))
        adj[ln.to_bus].append((ln.from_bus, k))
    orient = {}
    order = []
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        order.append(u)
        for v, k in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            orient[k] = (u, v)
            queue.append(v)
    if len(seen) != len(case.buses) or len(orient) != len(case.lines):
        raise ValidationError([Violation(
            "not_radial", "case", "not a tree rooted at the interface bus")])
    children = {b.id: [] for b in case.buses}
    for k, (u, _) in orient.items():
        children[u].append(k)
    for u in children:
        children[u].sort()
    return orient, children, order


def loss_coefficients(r, p0, q0, nu0):
    """First-order Taylor coefficients of the line loss r (P^2 + Q^2) / nu.

    Returns (alpha, beta, gamma) with loss ~ alpha P + beta Q + gamma; the
    denominator is frozen at the sending-end base voltage nu0.
    """
    if nu0 <= 0:
        raise ValidationError([Violation("nonpositive_voltage_bound",
                                         "operating point")])
    alpha = 2.0 * r * p0 / nu0
    beta = 2.0 * r * q0 / nu0
    gamma = -r * (p0 * p0 + q0 * q0) / nu0
    return alpha, beta, gamma


def _build_radial(case, link, op):
    root = link.dso_root_bus
    orient, children, _ = _tree_structure(case, root)
    bidx = case.bus_index()

    lay = _Layout()
    gp = lay.add("gen_p", [f"gen_p:{g.bus}#{k}" for k, g in enumerate(case.gens)])
    gq = lay.add("gen_q", [f"gen_q:{g.bus}#{k}" for k, g in enumerate(case.gens)])
    nu = lay.add("nu", [f"nu:{b.id}" for b in case.buses])
    fp = lay.add("flow_p", [f"flow_p:{case.lines[k].from_bus}-{case.lines[k].to_bus}"
                            for k in range(len(case.lines))])
    fq = lay.add("flow_q", [f"flow_q:{case.lines[k].from_bus}-{case.lines[k].to_bus}"
                            for k in range(len(case.lines))])
    lay.add("coupling", [f"{nm}:{link.dso_index}" for nm in ("p_if", "q_if", "nu_if")])
    vmap = lay.freeze(1)
    n = vmap.n
    c_p, c_q, c_nu = vmap.coupling_triple(0)

    if op is not None:
        if len(op.flow_p) != len(case.lines) or len(op.flow_q) != len(case.lines) \
                or len(op.nu) != len(case.buses):
            raise ValidationError([Violation("dimension_mismatch", "operating point")])
        for i, b in enumerate(case.buses):
            if not (b.v2_min - 1e-9 <= op.nu[i] <= b.v2_max + 1e-9):
                raise ValidationError([Violation(
                    "voltage_bound", f"bus {b.id}",
                    f"base point nu {op.nu[i]:.4f} outside band")])

    coeff = {}
    for k, (u, _) in orient.items():
        if op is None:
            coeff[k] = (0.0, 0.0, 0.0)
        else:
            coeff[k] = loss_coefficients(case.lines[k].r, op.flow_p[k],
                                         op.flow_q[k], op.nu[bidx[u]])

    eq_rows, eq_rhs = [], []
    gens_at = {}
    for k, gen in enumerate(case.gens):
        gens_at.setdefault(gen.bus, []).append(k)
    parent_edge = {v: k for k, (_, v) in orient.items()}

    for b in case.buses:
        # Active balance: delivered parent flow + local generation covers the
        # bus load, onward child flows, and the child lines' linearized loss.
        row = np.zeros(n)
        if b.id == root:
            row[c_p] = 1.0
        else:
            row[fp.start + parent_edge[b.id]] = 1.0
        for k in gens_at.get(b.id, ()):
            row[gp.start + k] = 1.0
        rhs = b.p_load
        for m in children[b.id]:
            alpha, beta, gamma = coeff[m]
            row[fp.start + m] = -(1.0 + alpha)
            row[fq.start + m] += -beta
            rhs += gamma
        eq_rows.append(row)
        eq_rhs.append(rhs)

        # Reactive balance (lossless).
        row = np.zeros(n)
        if b.id == root:
            row[c_q] = 1.0
        else:
            row[fq.start + parent_edge[b.id]] = 1.0
        for k in gens_at.get(b.id, ()):
            row[gq.start + k] = 1.0
        for m in children[b.id]:
            row[fq.start + m] += -1.0
        eq_rows.append(row)
        eq_rhs.append(b.q_load)

    for k, (u, v) in sorted(orient.items()):
        ln = case.lines[k]
        row = np.zeros(n)
        row[nu.start + bidx[v]] = 1.0
        row[nu.start + bidx[u]] = -1.0
        row[fp.start + k] = 2.0 * ln.r
        row[fq.start + k] = 2.0 * ln.x
        eq_rows.append(row)
        eq_rhs.append(0.0)

    row = np.zeros(n)
    row[nu.start + bidx[root]] = 1.0
    row[c_nu] = -1.0
    eq_rows.append(row)
    eq_rhs.append(0.0)

    in_rows, in_rhs = [], []
    for i, b in enumerate(case.buses):
        row = np.zeros(n)
        row[nu.start + i] = 1.0
        in_rows.append(row)
        in_rhs.append(b.v2_max)
        in_rows.append(-row)
        in_rhs.append(-b.v2_min)
    _gen_boxes(case, n, gp, "p_min", "p_max", in_rows, in_rhs)
    _gen_boxes(case, n, gq, "q_min", "q_max", in_rows, in_rhs)
    for k, ln in enumerate(case.lines):
        if ln.s_max <= 0:
            continue
        for span in (fp, fq):
            row = np.zeros(n)
            row[span.start + k] = 1.0
            in_rows.append(row)
            in_rhs.append(ln.s_max)
            in_rows.append(-row)
            in_rhs.append(ln.s_max)

    H, g, c0 = _gen_cost_terms(case, n, gp)
    qp = QuadraticProgram(H, g, np.array(in_rows).reshape(-1, n), in_rhs,
                          np.array(eq_rows).reshape(-1, n), eq_rhs, c0)
    kind = MODEL_LINDISTFLOW if op is None else MODEL_LOSS_LINEARIZED
    log.debug("%s model: %d vars, %d eq, %d ineq", kind, n, len(eq_rhs), len(in_rhs))
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
    orient, children, order = _tree_structure(case, link.dso_root_bus)
    bidx = case.bus_index()
    fp = [0.0] * len(case.lines)
    fq = [0.0] * len(case.lines)
    for u in reversed(order):
        for k in children[u]:
            child = orient[k][1]
            b = case.buses[bidx[child]]
            fp[k] = b.p_load + sum(fp[m] for m in children[child])
            fq[k] = b.q_load + sum(fq[m] for m in children[child])
    nu = [1.0] * len(case.buses)
    for u in order:
        for k in children[u]:
            child = orient[k][1]
            ln = case.lines[k]
            nu[bidx[child]] = nu[bidx[u]] - 2.0 * (ln.r * fp[k] + ln.x * fq[k])
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
    cols = model.vmap.coupling_triple(slot)
    Q = np.asarray(extra.Q, dtype=float)
    c = np.asarray(extra.c, dtype=float).ravel()
    H = qp.H.copy()
    g = qp.g.copy()
    for a, ca in enumerate(cols):
        g[ca] += c[a]
        for bb, cb in enumerate(cols):
            H[ca, cb] += Q[a, bb]
    red = qp.reduction.with_cost(cols, Q) if qp.reduction is not None else None
    qp2 = QuadraticProgram(H, g, qp.A_ineq, qp.b_ineq, qp.A_eq, qp.b_eq,
                           qp.c0 + float(extra.d), red)
    return PolyhedralModel(qp2, model.vmap, model.operating_point, model.kind,
                           model.case, model.links)


def pin_coupling(model: PolyhedralModel, z_by_slot) -> QuadraticProgram:
    """New QP with coupling triples fixed by equality rows.

    z_by_slot is a mapping slot -> 3-vector, or a single 3-vector for slot 0.
    """
    if not isinstance(z_by_slot, dict):
        z_by_slot = {0: z_by_slot}
    qp = model.qp_skeleton
    n = qp.n
    rows, rhs = [], []
    for slot, z in sorted(z_by_slot.items()):
        z = np.asarray(z, dtype=float).ravel()
        if z.size != 3:
            raise ValueError("coupling value must be a 3-vector")
        for col, val in zip(model.vmap.coupling_triple(slot), z):
            row = np.zeros(n)
            row[col] = 1.0
            rows.append(row)
            rhs.append(float(val))
    A_eq = np.vstack([qp.A_eq, rows]) if qp.b_eq.size else np.array(rows)
    b_eq = np.concatenate([qp.b_eq, rhs])
    return QuadraticProgram(qp.H, qp.g, qp.A_ineq, qp.b_ineq, A_eq, b_eq, qp.c0)
