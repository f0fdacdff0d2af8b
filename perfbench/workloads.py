"""Seeded workload generator for the benchmark.

Every workload is a `gridcoord.grid_model.Partition` built from the packaged
`case9.json` (transmission) and `case15.json` (radial feeder) templates with
the public grid-model API only: `load_case`, `dataclasses.replace` on the
frozen records, `Interconnection`, `Partition` and `validate`.

The partition of a workload is the same for every seed.  Its counts (solves,
ADMM rounds, shipped floats) must repeat exactly from run to run, and on
`deep` the ADMM round count is a sharp function of the feeder make-up (ten
generators instead of nine stop it converging at all).  The seed drives what
may vary without changing the problem: the value-function sampling stream
handed to the two-sweep rows and the directions the output checks probe.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from gridcoord import grid_model as gm

WORKLOADS = ("builtin", "wide", "deep")

# wide: fourteen feeder copies spread round-robin over the transmission
# load buses, two local generators per copy.  Copy k scales its loads by
# WIDE_LOAD_SCALE * (0.75 + 0.5 k / 13), so all fourteen together draw what
# the two built-in feeders draw and no two copies pose the same problem.
# Fourteen is the fewest that take the centralized KKT system past
# dimension 2,000; each further feeder adds about 3 s to a pass.
WIDE_FEEDERS = 14
WIDE_TSO_BUSES = (4, 5, 6, 7, 8, 9)
WIDE_LOAD_SCALE = 2.0 / WIDE_FEEDERS
WIDE_SCALE_SPREAD = 0.5
WIDE_GEN_BUSES = (8, 13)
WIDE_CAPACITY_FACTOR = 2.0

# deep: the built-in attachment (feeder 1 at bus 8, feeder 2 at bus 6) with
# feeder 1 carrying nine generators at unit capacity factor
DEEP_TSO_BUSES = (8, 6)
DEEP_GEN_BUSES = (tuple(range(2, 11)), (8, 14))
DEEP_CAPACITY_FACTOR = 1.0

# support directions the FOR oracle probes: the six axis directions plus
# this many seeded unit vectors
RANDOM_DIRECTIONS = 8


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    partition: gm.Partition
    sample_seed: int  # AdpConfig.seed of the two-sweep rows
    directions: np.ndarray  # (k, 3) unit vectors for the FOR oracle


def _templates():
    data = resources.files("gridcoord").joinpath("data")
    tso = gm.load_case(data.joinpath("case9.json").read_text(encoding="utf-8"))
    feeder = gm.load_case(data.joinpath("case15.json").read_text(encoding="utf-8"))
    return tso, feeder


def _tso(case):
    return replace(case, gens=tuple(
        replace(g, p_max=gm.TSO_PMAX_FACTOR * g.p_max) for g in case.gens))


def _scaled(case, scale):
    return replace(case, buses=tuple(
        replace(b, p_load=scale * b.p_load, q_load=scale * b.q_load)
        for b in case.buses))


def _with_gens(case, bus_ids, factor):
    """Loads at bus_ids become generators of factor x their active load."""
    a2, a1, a0 = gm.DEFAULT_DSO_GEN_COST
    by_id = {b.id: b for b in case.buses}
    gens = []
    for bid in bus_ids:
        cap = factor * by_id[bid].p_load
        gens.append(gm.Generator(bus=bid, p_min=0.0, p_max=cap,
                                 q_min=-0.5 * cap, q_max=0.5 * cap,
                                 cost_a2=a2, cost_a1=a1, cost_a0=a0))
    buses = tuple(replace(b, kind="generator", p_load=0.0, q_load=0.0)
                  if b.id in bus_ids else b for b in case.buses)
    return replace(case, buses=buses, gens=case.gens + tuple(gens))


def _validated(part):
    violations = [v for case in (part.tso,) + part.dsos
                  for v in gm.validate(case)]
    if violations:
        raise gm.ValidationError(violations)
    return part


def _partition(tso, feeders, tso_buses):
    links = tuple(gm.Interconnection(k + 1, bus, f.slack_id())
                  for k, (f, bus) in enumerate(zip(feeders, tso_buses)))
    return _validated(gm.Partition(tso, tuple(feeders), links))


def build_partition(name: str) -> gm.Partition:
    """The workload's partition, validated; the same for every seed."""
    if name == "builtin":
        return _validated(gm.load_builtin_benchmark())
    tso, feeder = _templates()
    tso = _tso(tso)
    if name == "wide":
        spread = np.linspace(1.0 - WIDE_SCALE_SPREAD / 2,
                             1.0 + WIDE_SCALE_SPREAD / 2, WIDE_FEEDERS)
        feeders = [_with_gens(_scaled(feeder, WIDE_LOAD_SCALE * f),
                              WIDE_GEN_BUSES, WIDE_CAPACITY_FACTOR)
                   for f in spread]
        buses = [WIDE_TSO_BUSES[k % len(WIDE_TSO_BUSES)]
                 for k in range(WIDE_FEEDERS)]
        return _partition(tso, feeders, buses)
    if name == "deep":
        feeders = [_with_gens(feeder, ids, DEEP_CAPACITY_FACTOR)
                   for ids in DEEP_GEN_BUSES]
        return _partition(tso, feeders, DEEP_TSO_BUSES)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def build(name: str, seed: int) -> Workload:
    """Partition plus the seeded parts of the workload."""
    part = build_partition(name)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    rand = rng.normal(size=(RANDOM_DIRECTIONS, 3))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    directions = np.vstack([np.eye(3), -np.eye(3), rand])
    return Workload(name, part, int(rng.integers(0, 2**31 - 1)), directions)
