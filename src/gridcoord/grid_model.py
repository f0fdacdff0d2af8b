"""Grid data model in per-unit: buses, lines, generators, and whole cases.

Covers ingestion from a MATPOWER-style text subset and from the native JSON
schema, serialization with bit-exact round trip, structural validation
diagnostics, and deterministic composition of the built-in study system
(one transmission grid plus two radial feeders).
"""
from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from dataclasses import dataclass, replace
from importlib import resources

DEFAULT_V2_MIN = 0.81
DEFAULT_V2_MAX = 1.21
VALID_BUS_KINDS = ("slack", "generator", "load")

# Study-system composition: buses are numbered consecutively (transmission
# block first, then one block per feeder); generator placements below use
# that numbering and map onto local feeder ids by subtracting the offset.
DSO1_STUDY_GEN_BUSES = (17, 18, 22)
DSO2_STUDY_GEN_BUSES = (29, 38)
DSO1_TSO_BUS = 8
DSO2_TSO_BUS = 6
DSO1_CAPACITY_FACTOR = 2.0
DSO2_CAPACITY_FACTOR = 1.0
TSO_PMAX_FACTOR = 3.0
DEFAULT_DSO_GEN_COST = (0.5, 5.0, 0.0)


class ParseError(ValueError):
    """Source text does not parse as the declared format."""


class ValidationError(ValueError):
    """A grid case violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Violation:
    kind: str
    element: str
    detail: str = ""

    def __str__(self):
        head = f"{self.kind}: {self.element}"
        return f"{head} ({self.detail})" if self.detail else head


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    p_load: float = 0.0
    q_load: float = 0.0
    v2_min: float = DEFAULT_V2_MIN
    v2_max: float = DEFAULT_V2_MAX

    def __post_init__(self):
        object.__setattr__(self, "id", int(self.id))
        for name in ("p_load", "q_load", "v2_min", "v2_max"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    s_max: float = 0.0  # 0 = unlimited

    def __post_init__(self):
        object.__setattr__(self, "from_bus", int(self.from_bus))
        object.__setattr__(self, "to_bus", int(self.to_bus))
        for name in ("r", "x", "s_max"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost_a2: float = 0.0
    cost_a1: float = 0.0
    cost_a0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bus", int(self.bus))
        for name in ("p_min", "p_max", "q_min", "q_max",
                     "cost_a2", "cost_a1", "cost_a0"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class GridCase:
    base_mva: float
    buses: tuple
    lines: tuple
    gens: tuple
    topology_kind: str | None = None  # None = infer from the line graph

    def __post_init__(self):
        object.__setattr__(self, "base_mva", float(self.base_mva))
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.topology_kind is None:
            object.__setattr__(self, "topology_kind",
                               infer_topology(self.buses, self.lines))

    def bus_index(self) -> dict:
        """Map bus id -> position in the buses tuple."""
        return {b.id: k for k, b in enumerate(self.buses)}

    def slack_id(self) -> int:
        for b in self.buses:
            if b.kind == "slack":
                return b.id
        raise ValidationError([Violation("no_slack", "case")])


@dataclass(frozen=True)
class Interconnection:
    dso_index: int
    tso_bus: int
    dso_root_bus: int


@dataclass(frozen=True)
class Partition:
    tso: GridCase
    dsos: tuple
    links: tuple

    def __post_init__(self):
        object.__setattr__(self, "dsos", tuple(self.dsos))
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.links) != len(self.dsos):
            raise ValidationError([Violation(
                "link_mismatch", "partition",
                f"{len(self.dsos)} subsystems vs {len(self.links)} links")])
        idx = [ln.dso_index for ln in self.links]
        if len(set(idx)) != len(idx):
            raise ValidationError([Violation("duplicate_link", f"indices {idx}")])


TreeWalk = namedtuple("TreeWalk", "order line reached extra")


def walk(buses, lines, root) -> TreeWalk:
    """Breadth-first walk of the line graph over bus positions, from the bus
    with id root, then from each bus not yet reached; lines to an unknown
    bus are left out.  `order` lists every bus, each after the one it was
    reached from, order[:reached] being those the root reaches; line[i] is
    the line bus i was reached by (-1 at a start); each `extra` line, one
    the walk did not take, closes a cycle (`_cycle`).  A tree has
    reached == len(buses) == len(lines) + 1."""
    pos = {b.id: k for k, b in enumerate(buses)}
    adj = [[] for _ in buses]
    for k, ln in enumerate(lines):
        if ln.from_bus in pos and ln.to_bus in pos:
            adj[pos[ln.from_bus]].append((pos[ln.to_bus], k))
            adj[pos[ln.to_bus]].append((pos[ln.from_bus], k))
    seen = [False] * len(buses)
    order, line, reached = [], [-1] * len(buses), 0
    for start in (pos[root], *range(len(buses))):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            for v, k in adj[order[head]]:
                if not seen[v]:
                    seen[v] = True
                    line[v] = k
                    order.append(v)
            head += 1
        reached = reached or len(order)
    taken = set(line)
    return TreeWalk(tuple(order), tuple(line), reached, tuple(
        k for k, ln in enumerate(lines) if k not in taken
        and ln.from_bus in pos and ln.to_bus in pos))


def infer_topology(buses, lines) -> str:
    """A connected line graph with |lines| = |buses| - 1 is a tree: radial."""
    if not buses:
        return "meshed"
    connected = walk(buses, lines, buses[0].id).reached == len(buses)
    return "radial" if connected and len(lines) == len(buses) - 1 else "meshed"


def _cycle(buses, lines, w: TreeWalk, k: int) -> list:
    """The bus ids of the cycle extra line k of walk w closes: the walk's
    paths from the line's two ends back to the bus where they meet."""
    pos = {b.id: i for i, b in enumerate(buses)}
    a, b = [pos[lines[k].from_bus]], [pos[lines[k].to_bus]]
    for path in (a, b):
        while w.line[path[-1]] >= 0:
            ln = lines[w.line[path[-1]]]
            path.append(pos[ln.from_bus] + pos[ln.to_bus] - path[-1])
    common = set(a) & set(b)
    meet = next(i for i in a if i in common)
    return [buses[i].id for i in a[:a.index(meet) + 1] + b[:b.index(meet)]]


def validate(case: GridCase) -> list:
    """Structural diagnostics; empty list iff all case invariants hold."""
    out = []
    ids = [b.id for b in case.buses]
    idset = set(ids)
    if len(ids) != len(idset):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        out.append(Violation("duplicate_bus", f"buses {dupes}"))
    slacks = [b.id for b in case.buses if b.kind == "slack"]
    if not slacks:
        out.append(Violation("no_slack", "case"))
    elif len(slacks) > 1:
        out.append(Violation("multiple_slack", f"buses {slacks}"))
    for b in case.buses:
        if b.kind not in VALID_BUS_KINDS:
            out.append(Violation("unknown_kind", f"bus {b.id}", repr(b.kind)))
        if b.id < 1:
            out.append(Violation("bad_id", f"bus {b.id}"))
        if b.v2_min <= 0.0:
            out.append(Violation("nonpositive_voltage_bound", f"bus {b.id}"))
        if b.v2_min > b.v2_max:
            out.append(Violation("empty_range", f"bus {b.id}", "v2_min > v2_max"))
    for k, ln in enumerate(case.lines):
        tag = f"line {k} ({ln.from_bus}-{ln.to_bus})"
        if ln.from_bus == ln.to_bus:
            out.append(Violation("self_loop", tag))
        if ln.from_bus not in idset or ln.to_bus not in idset:
            out.append(Violation("unknown_bus", tag))
        if ln.x <= 0.0:
            out.append(Violation("nonpositive_reactance", tag))
        if ln.r < 0.0:
            out.append(Violation("negative_resistance", tag))
        if ln.s_max < 0.0:
            out.append(Violation("negative_rating", tag))
    for k, g in enumerate(case.gens):
        tag = f"gen {k} at bus {g.bus}"
        if g.bus not in idset:
            out.append(Violation("unknown_bus", tag))
        if g.p_min > g.p_max:
            out.append(Violation("empty_range", tag, "p_min > p_max"))
        if g.q_min > g.q_max:
            out.append(Violation("empty_range", tag, "q_min > q_max"))
        if g.cost_a2 < 0.0:
            out.append(Violation("nonconvex_cost", tag))
    w = walk(case.buses, case.lines, (slacks or ids)[0]) if ids else None
    if w and w.reached < len(ids) == len(idset):
        unreachable = sorted(ids[i] for i in w.order[w.reached:])
        out.append(Violation("disconnected", f"buses {unreachable}"))
    if case.topology_kind not in ("radial", "meshed"):
        out.append(Violation("unknown_kind", "case", repr(case.topology_kind)))
    elif case.topology_kind == "radial":
        if w and w.extra:
            cycle = _cycle(case.buses, case.lines, w, w.extra[0])
            out.append(Violation("not_radial", f"cycle through buses {sorted(cycle)}"))
        elif len(case.lines) != len(case.buses) - 1:
            out.append(Violation("not_radial", "line count differs from tree"))
    # Unit-sanity guard only: per-unit magnitudes beyond 1e3 indicate raw
    # MW/MVAr values slipping through a conversion. Costs are exempt.
    for b in case.buses:
        fields = (b.p_load, b.q_load, b.v2_min, b.v2_max)
        if max(abs(v) for v in fields) > 1e3:
            out.append(Violation("magnitude_guard", f"bus {b.id}"))
    for k, ln in enumerate(case.lines):
        if max(abs(ln.r), abs(ln.x), abs(ln.s_max)) > 1e3:
            out.append(Violation("magnitude_guard", f"line {k}"))
    for k, g in enumerate(case.gens):
        fields = (g.p_min, g.p_max, g.q_min, g.q_max)
        if max(abs(v) for v in fields) > 1e3:
            out.append(Violation("magnitude_guard", f"gen {k} at bus {g.bus}"))
    return out


_MAT_BLOCK = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\]\s*;", re.S)
_MAT_SCALAR = re.compile(r"mpc\.(\w+)\s*=\s*([^\[;\n]+);")
_BUS_KIND = {3: "slack", 2: "generator", 1: "load"}


def _parse_matrix(name, content):
    rows = []
    for raw in re.split(r"[;\n]", content):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rows.append([float(tok) for tok in raw.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"bad row in mpc.{name}: {raw!r}") from exc
    return rows


def _parse_matpower(text: str) -> GridCase:
    body = "\n".join(ln.split("%", 1)[0] for ln in text.splitlines())
    blocks = {name: _parse_matrix(name, content)
              for name, content in _MAT_BLOCK.findall(body)}
    base = None
    for name, value in _MAT_SCALAR.findall(body):
        if name == "baseMVA":
            try:
                base = float(value.strip())
            except ValueError as exc:
                raise ParseError(f"bad mpc.baseMVA: {value!r}") from exc
    if base is None or base <= 0:
        raise ParseError("missing or invalid mpc.baseMVA")
    for req in ("bus", "gen", "branch"):
        if req not in blocks:
            raise ParseError(f"missing mpc.{req}")

    buses = []
    for row in blocks["bus"]:
        if len(row) < 4:
            raise ParseError(f"bus row too short: {row}")
        kind = _BUS_KIND.get(int(row[1]))
        if kind is None:
            raise ParseError(f"bus {int(row[0])}: unsupported type {int(row[1])}")
        if len(row) >= 13:
            v2_min, v2_max = row[12] ** 2, row[11] ** 2
        else:
            v2_min, v2_max = DEFAULT_V2_MIN, DEFAULT_V2_MAX
        buses.append(Bus(id=int(row[0]), kind=kind,
                         p_load=row[2] / base, q_load=row[3] / base,
                         v2_min=v2_min, v2_max=v2_max))

    lines = []
    for row in blocks["branch"]:
        if len(row) < 6:
            raise ParseError(f"branch row too short: {row}")
        status = row[10] if len(row) > 10 else 1.0
        if status == 0:
            continue
        lines.append(Line(from_bus=int(row[0]), to_bus=int(row[1]),
                          r=row[2], x=row[3], s_max=row[5] / base))

    costs = blocks.get("gencost", [])
    gens = []
    for k, row in enumerate(blocks["gen"]):
        if len(row) < 10:
            raise ParseError(f"gen row too short: {row}")
        a2 = a1 = a0 = 0.0
        if k < len(costs):
            crow = costs[k]
            if len(crow) < 4 or int(crow[0]) != 2:
                raise ParseError(f"gencost row {k}: only polynomial costs supported")
            ncoef = int(crow[3])
            coef = crow[4:4 + ncoef]
            if len(coef) != ncoef or ncoef > 3:
                raise ParseError(f"gencost row {k}: need 1-3 coefficients")
            pad = [0.0] * (3 - ncoef) + list(coef)
            # $/MW^2 and $/MW on MW become $/p.u.^2 and $/p.u. on p.u.
            a2, a1, a0 = pad[0] * base * base, pad[1] * base, pad[2]
        if row[7] <= 0:  # status column
            continue
        gens.append(Generator(bus=int(row[0]),
                              p_min=row[9] / base, p_max=row[8] / base,
                              q_min=row[4] / base, q_max=row[3] / base,
                              cost_a2=a2, cost_a1=a1, cost_a0=a0))

    return GridCase(base, tuple(buses), tuple(lines), tuple(gens))


def _parse_native(text: str) -> GridCase:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("native case must be a JSON object")
    try:
        buses = tuple(Bus(id=b["id"], kind=b.get("kind", "load"),
                          p_load=b.get("p_load", 0.0), q_load=b.get("q_load", 0.0),
                          v2_min=b.get("v2_min", DEFAULT_V2_MIN),
                          v2_max=b.get("v2_max", DEFAULT_V2_MAX))
                      for b in doc["buses"])
        lines = tuple(Line(from_bus=ln["from"], to_bus=ln["to"],
                           r=ln["r"], x=ln["x"], s_max=ln.get("s_max", 0.0))
                      for ln in doc["lines"])
        gens = tuple(Generator(bus=g["bus"], p_min=g["p_min"], p_max=g["p_max"],
                               q_min=g["q_min"], q_max=g["q_max"],
                               cost_a2=g.get("cost_a2", 0.0),
                               cost_a1=g.get("cost_a1", 0.0),
                               cost_a0=g.get("cost_a0", 0.0))
                     for g in doc["gens"])
        return GridCase(float(doc["base_mva"]), buses, lines, gens)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"native case field error: {exc!r}") from exc


def _read_source(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    if isinstance(source, str):
        if "\n" not in source and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                return fh.read()
        return source
    raise ParseError(f"unsupported source type {type(source).__name__}")


def load_case(source, fmt: str = "native_json") -> GridCase:
    """Parse and validate a case. Raises ParseError or ValidationError."""
    text = _read_source(source)
    if fmt == "matpower_m":
        case = _parse_matpower(text)
    elif fmt == "native_json":
        case = _parse_native(text)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    violations = validate(case)
    if violations:
        raise ValidationError(violations)
    return case


def serialize_case(case: GridCase) -> str:
    """Native JSON text; load_case(serialize_case(c)) == c field for field."""
    doc = {
        "base_mva": case.base_mva,
        "buses": [{"id": b.id, "kind": b.kind, "p_load": b.p_load,
                   "q_load": b.q_load, "v2_min": b.v2_min, "v2_max": b.v2_max}
                  for b in case.buses],
        "lines": [{"from": ln.from_bus, "to": ln.to_bus, "r": ln.r, "x": ln.x,
                   "s_max": ln.s_max} for ln in case.lines],
        "gens": [{"bus": g.bus, "p_min": g.p_min, "p_max": g.p_max,
                  "q_min": g.q_min, "q_max": g.q_max, "cost_a2": g.cost_a2,
                  "cost_a1": g.cost_a1, "cost_a0": g.cost_a0}
                 for g in case.gens],
    }
    return json.dumps(doc, indent=2)


def _swap_loads_for_gens(case, local_ids, factor, cost):
    idset = {b.id for b in case.buses}
    missing = sorted(i for i in local_ids if i not in idset)
    if missing:
        raise ValidationError([Violation(
            "unknown_bus", f"buses {missing}", "feeder lacks mapped generator buses")])
    a2, a1, a0 = cost
    buses, new_gens = [], []
    for b in case.buses:
        if b.id in local_ids:
            p_cap = factor * b.p_load
            q_cap = 0.5 * p_cap
            new_gens.append(Generator(bus=b.id, p_min=0.0, p_max=p_cap,
                                      q_min=-q_cap, q_max=q_cap,
                                      cost_a2=a2, cost_a1=a1, cost_a0=a0))
            buses.append(replace(b, kind="generator", p_load=0.0, q_load=0.0))
        else:
            buses.append(b)
    return replace(case, buses=tuple(buses), gens=case.gens + tuple(new_gens))


def compose_benchmark(tso_case: GridCase, feeder_case: GridCase) -> Partition:
    """Deterministically build the study partition from the two templates.

    Transmission generators get their p_max scaled by 3; feeder copy one
    swaps three loads for generators at twice the load's capacity, feeder
    copy two swaps two loads at equal capacity. New generators carry the
    cost coefficients DEFAULT_DSO_GEN_COST and a reactive box of half the
    active capacity.
    """
    n_t = len(tso_case.buses)
    n_f = len(feeder_case.buses)
    tso = replace(tso_case, gens=tuple(
        replace(g, p_max=TSO_PMAX_FACTOR * g.p_max) for g in tso_case.gens))
    tso_ids = {b.id for b in tso.buses}
    for tb in (DSO1_TSO_BUS, DSO2_TSO_BUS):
        if tb not in tso_ids:
            raise ValidationError([Violation(
                "unknown_bus", f"bus {tb}", "interface bus missing from the grid")])
    dso1 = _swap_loads_for_gens(
        feeder_case, [b - n_t for b in DSO1_STUDY_GEN_BUSES],
        DSO1_CAPACITY_FACTOR, DEFAULT_DSO_GEN_COST)
    dso2 = _swap_loads_for_gens(
        feeder_case, [b - n_t - n_f for b in DSO2_STUDY_GEN_BUSES],
        DSO2_CAPACITY_FACTOR, DEFAULT_DSO_GEN_COST)
    root = feeder_case.slack_id()
    links = (Interconnection(1, DSO1_TSO_BUS, root),
             Interconnection(2, DSO2_TSO_BUS, root))
    return Partition(tso, (dso1, dso2), links)


def load_builtin_benchmark() -> Partition:
    """The packaged study system: composed transmission case plus two feeders."""
    data = resources.files("gridcoord").joinpath("data")
    tso = load_case(data.joinpath("case9.json").read_text(encoding="utf-8"))
    feeder = load_case(data.joinpath("case15.json").read_text(encoding="utf-8"))
    return compose_benchmark(tso, feeder)
