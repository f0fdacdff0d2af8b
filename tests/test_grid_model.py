"""Grid data model tests: parsing, validation, round trip, benchmark composer."""
import json
import math
from pathlib import Path

import pytest

from gridcoord import grid_model as gm

DATA = Path(__file__).parent / "data"

TWO_BUS_M = """
function mpc = two_bus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0  0 0 1 1 0 230 1 1.1 0.9;
    2 1 50 10 0 0 1 1 0 230 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1 100 1 120 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 0 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.02 30 0;
];
"""


def case9_text():
    return (DATA / "case9.m").read_text()


class TestMatpowerParse:
    def test_two_bus_per_unit_conversion(self):
        case = gm.load_case(TWO_BUS_M, fmt="matpower_m")
        bus2 = case.buses[1]
        assert bus2.p_load == 0.5
        assert bus2.q_load == 0.1
        assert case.buses[0].kind == "slack"
        g = case.gens[0]
        assert g.p_max == 1.2
        assert g.cost_a2 == 0.02 * 100 * 100
        assert g.cost_a1 == 30.0 * 100
        assert g.cost_a0 == 0.0

    def test_case9_shape(self):
        case = gm.load_case(case9_text(), fmt="matpower_m")
        assert len(case.buses) == 9
        assert len(case.lines) == 9
        assert len(case.gens) == 3
        assert case.topology_kind == "meshed"
        by_id = {b.id: b for b in case.buses}
        assert by_id[5].p_load == 0.9
        assert by_id[9].q_load == 0.5
        assert by_id[1].v2_min == 0.9 ** 2
        assert by_id[1].v2_max == 1.1 ** 2
        assert case.gens[0].p_max == 2.5
        assert case.gens[1].p_max == 3.0
        line14 = case.lines[0]
        assert (line14.from_bus, line14.to_bus) == (1, 4)
        assert line14.s_max == 2.5

    def test_case9_isolated_bus_rejected(self):
        # Dropping every branch that touches bus 9 disconnects it.
        text = "\n".join(ln for ln in case9_text().splitlines()
                         if not ln.strip().startswith(("8\t9", "9\t4")))
        with pytest.raises(gm.ValidationError) as err:
            gm.load_case(text, fmt="matpower_m")
        assert any(v.kind == "disconnected" and "9" in v.element
                   for v in err.value.violations)

    def test_malformed_row_raises_parse_error(self):
        bad = TWO_BUS_M.replace("1 2 0.01 0.1", "1 2 oops 0.1")
        with pytest.raises(gm.ParseError):
            gm.load_case(bad, fmt="matpower_m")

    def test_missing_base_mva(self):
        bad = TWO_BUS_M.replace("mpc.baseMVA = 100;", "")
        with pytest.raises(gm.ParseError):
            gm.load_case(bad, fmt="matpower_m")

    def test_out_of_service_rows_skipped(self):
        text = TWO_BUS_M.replace(
            "mpc.gen = [\n    1 0 0 100 -100 1 100 1 120 0 0 0 0 0 0 0 0 0 0 0 0;",
            "mpc.gen = [\n    1 0 0 100 -100 1 100 1 120 0 0 0 0 0 0 0 0 0 0 0 0;\n"
            "    2 0 0 100 -100 1 100 0 500 0 0 0 0 0 0 0 0 0 0 0 0;")
        text = text.replace(
            "mpc.gencost = [\n    2 0 0 3 0.02 30 0;",
            "mpc.gencost = [\n    2 0 0 3 0.02 30 0;\n    2 0 0 3 9 9 9;")
        case = gm.load_case(text, fmt="matpower_m")
        assert len(case.gens) == 1
        assert case.gens[0].cost_a1 == 3000.0

    def test_bfs_oracle_agrees_on_connectivity(self):
        case = gm.load_case(case9_text(), fmt="matpower_m")
        # independent breadth-first sweep over the parsed line list
        adj = {b.id: set() for b in case.buses}
        for ln in case.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        frontier, seen = {1}, {1}
        while frontier:
            frontier = {n for f in frontier for n in adj[f]} - seen
            seen |= frontier
        assert seen == {b.id for b in case.buses}
        assert not any(v.kind == "disconnected" for v in gm.validate(case))


class TestNativeRoundTrip:
    def test_case9_round_trip_identity(self):
        case = gm.load_case(case9_text(), fmt="matpower_m")
        again = gm.load_case(gm.serialize_case(case), fmt="native_json")
        assert again == case

    def test_serialized_field_names(self):
        case = gm.load_case(TWO_BUS_M, fmt="matpower_m")
        doc = json.loads(gm.serialize_case(case))
        assert set(doc) == {"base_mva", "buses", "lines", "gens"}
        assert set(doc["lines"][0]) == {"from", "to", "r", "x", "s_max"}

    def test_awkward_reals_survive(self):
        case = gm.GridCase(100.0, (
            gm.Bus(1, "slack"),
            gm.Bus(2, "load", p_load=0.1 + 0.2, q_load=1e-17),
        ), (gm.Line(1, 2, r=math.pi * 1e-3, x=1.0 / 3.0),), ())
        again = gm.load_case(gm.serialize_case(case), fmt="native_json")
        assert again.buses[1].p_load == case.buses[1].p_load
        assert again.lines[0].x == case.lines[0].x

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(gm.ParseError):
            gm.load_case("{not json", fmt="native_json")


class TestValidate:
    def test_case9_clean(self):
        case = gm.load_case(case9_text(), fmt="matpower_m")
        assert gm.validate(case) == []

    def test_radial_flag_on_cycle(self):
        buses = tuple(gm.Bus(i, "slack" if i == 1 else "load") for i in (1, 2, 3))
        lines = (gm.Line(1, 2, 0.0, 0.1), gm.Line(2, 3, 0.0, 0.1),
                 gm.Line(3, 1, 0.0, 0.1))
        case = gm.GridCase(100.0, buses, lines, (), topology_kind="radial")
        hits = [v for v in gm.validate(case) if v.kind == "not_radial"]
        assert len(hits) == 1
        # cycle oracle: the triangle is the only cycle
        assert all(str(b) in hits[0].element for b in (1, 2, 3))

    def test_radial_flag_names_a_real_cycle(self):
        # Two cycles (a triangle and a square sharing bus 3), a parallel
        # pair 6-7, a self-loop at 7 and a second component 8-9.
        buses = tuple(gm.Bus(i, "slack" if i == 1 else "load")
                      for i in range(1, 10))
        ends = ((1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 3),
                (6, 7), (6, 7), (7, 7), (8, 9))
        lines = tuple(gm.Line(a, b, 0.0, 0.1) for a, b in ends)
        case = gm.GridCase(100.0, buses, lines, (), topology_kind="radial")
        found = gm.validate(case)
        hits = [v for v in found if v.kind == "not_radial"]
        assert len(hits) == 1
        named = set(json.loads(hits[0].element.split("buses ")[1]))
        # cycle oracle: the simple cycles of the line graph
        assert named in ({1, 2, 3}, {3, 4, 5, 6}, {6, 7}, {7})
        assert [v.element for v in found if v.kind == "self_loop"] == \
            ["line 9 (7-7)"]
        assert [v.element for v in found if v.kind == "disconnected"] == \
            ["buses [8, 9]"]

    def test_empty_generator_range(self):
        case = gm.GridCase(100.0, (gm.Bus(1, "slack"),), (), (
            gm.Generator(1, 0.0, 1.0, q_min=0.5, q_max=-0.5),))
        hits = [v for v in gm.validate(case) if v.kind == "empty_range"]
        assert len(hits) == 1 and "bus 1" in hits[0].element

    def test_no_slack_and_duplicates(self):
        case = gm.GridCase(100.0, (gm.Bus(1, "load"), gm.Bus(1, "load")), (), ())
        kinds = {v.kind for v in gm.validate(case)}
        assert "no_slack" in kinds and "duplicate_bus" in kinds

    def test_magnitude_guard(self):
        case = gm.GridCase(100.0, (gm.Bus(1, "slack", p_load=5000.0),), (), ())
        assert any(v.kind == "magnitude_guard" for v in gm.validate(case))

    def test_zero_reactance_flagged(self):
        case = gm.GridCase(100.0, (gm.Bus(1, "slack"), gm.Bus(2, "load")),
                           (gm.Line(1, 2, 0.01, 0.0),), ())
        assert any(v.kind == "nonpositive_reactance" for v in gm.validate(case))


def feeder_template():
    """Minimal 15-bus radial feeder for composer tests (loads on every bus)."""
    buses = [gm.Bus(1, "slack")]
    buses += [gm.Bus(i, "load", p_load=0.1 * i, q_load=0.05 * i)
              for i in range(2, 16)]
    lines = [gm.Line(i - 1, i, 0.001, 0.002) for i in range(2, 16)]
    return gm.GridCase(100.0, tuple(buses), tuple(lines), ())


class TestComposeBenchmark:
    def test_structure(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        part = gm.compose_benchmark(tso, feeder_template())
        assert [(l.dso_index, l.tso_bus) for l in part.links] == [(1, 8), (2, 6)]
        assert all(l.dso_root_bus == 1 for l in part.links)
        assert len(part.dsos) == 2

    def test_tso_pmax_tripled(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        part = gm.compose_benchmark(tso, feeder_template())
        assert [g.p_max for g in part.tso.gens] == pytest.approx([7.5, 9.0, 8.1])
        assert [g.p_min for g in part.tso.gens] == [0.1, 0.1, 0.1]

    def test_dso1_swaps(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        feeder = feeder_template()
        part = gm.compose_benchmark(tso, feeder)
        dso1 = part.dsos[0]
        by_id = {b.id: b for b in dso1.buses}
        for local in (8, 9, 13):  # study ids 17, 18, 22 minus the offset 9
            assert by_id[local].p_load == 0.0
            assert by_id[local].kind == "generator"
        new = {g.bus: g for g in dso1.gens}
        for local in (8, 9, 13):
            orig = {b.id: b for b in feeder.buses}[local]
            assert new[local].p_max == 2.0 * orig.p_load
            assert new[local].q_max == 0.5 * new[local].p_max
            assert new[local].q_min == -new[local].q_max
            assert new[local].cost_a2 == 0.5 and new[local].cost_a1 == 5.0

    def test_dso2_same_capacity(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        feeder = feeder_template()
        part = gm.compose_benchmark(tso, feeder)
        orig = {b.id: b for b in feeder.buses}
        new = {g.bus: g for g in part.dsos[1].gens}
        for local in (5, 14):  # study ids 29, 38 minus the offset 24
            assert new[local].p_max == orig[local].p_load

    def test_deterministic(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        a = gm.compose_benchmark(tso, feeder_template())
        b = gm.compose_benchmark(tso, feeder_template())
        assert a == b

    def test_missing_mapped_bus(self):
        tso = gm.load_case(case9_text(), fmt="matpower_m")
        tiny = gm.GridCase(100.0, (gm.Bus(1, "slack"), gm.Bus(2, "load", 0.1)),
                           (gm.Line(1, 2, 0.001, 0.002),), ())
        with pytest.raises(gm.ValidationError):
            gm.compose_benchmark(tso, tiny)


class TestBuiltinBenchmark:
    def test_shape(self):
        part = gm.load_builtin_benchmark()
        assert len(part.dsos) == 2
        assert [(l.dso_index, l.tso_bus, l.dso_root_bus) for l in part.links] == [
            (1, 8, 1), (2, 6, 1)]

    def test_transmission_side(self):
        tso = gm.load_builtin_benchmark().tso
        assert [g.p_max for g in tso.gens] == pytest.approx([7.5, 9.0, 8.1])
        assert all(g.p_min == 0.1 for g in tso.gens)
        assert [g.cost_a1 for g in tso.gens] == [5.0, 1.2, 1.0]
        assert all(ln.s_max == 0.0 for ln in tso.lines)
        loads = {b.id: b.p_load for b in tso.buses if b.p_load}
        assert loads == {5: 0.9, 7: 1.0, 9: 1.25}

    def test_feeder_side(self):
        part = gm.load_builtin_benchmark()
        d1, d2 = part.dsos
        assert sorted(g.bus for g in d1.gens) == [8, 9, 13]
        assert sorted(g.bus for g in d2.gens) == [5, 14]
        # swapped buses carry no load; capacity doubles the displaced load
        by_id = {b.id: b for b in d1.buses}
        caps = {g.bus: g.p_max for g in d1.gens}
        assert all(by_id[i].p_load == 0.0 for i in (8, 9, 13))
        assert caps == pytest.approx({8: 0.7, 9: 0.7, 13: 0.441})
        assert all(g.cost_a2 == 0.5 and g.cost_a1 == 5.0 and g.cost_a0 == 0.0
                   for g in d1.gens + d2.gens)

    def test_feeder_totals(self):
        part = gm.load_builtin_benchmark()
        net1 = sum(b.p_load for b in part.dsos[0].buses)
        net2 = sum(b.p_load for b in part.dsos[1].buses)
        assert net1 == pytest.approx(5.2115, abs=1e-12)
        assert net2 == pytest.approx(5.5615, abs=1e-12)

    def test_loads_deterministically(self):
        assert gm.load_builtin_benchmark() == gm.load_builtin_benchmark()
