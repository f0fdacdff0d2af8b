"""Helpers the test modules import by name.

They live outside conftest.py because the benchmark's own tests bring a
conftest.py of their own, and a test module that imports `conftest` gets
whichever was loaded last.
"""
from dataclasses import replace
from importlib import resources

import numpy as np

from gridcoord import grid_model as gm

MODEL_KINDS = ("lindistflow", "loss_linearized")

CRITERION_LINES = []


def record_criterion(num, desc, ok, detail=""):
    """One verdict line per acceptance criterion; replayed after the run."""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {desc}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {desc}" + \
        (f" ({detail})" if detail else "")


def feeder_copies(count):
    """`count` copies of the packaged 15-bus feeder on the packaged 9-bus
    transmission case, made as the benchmark's `wide` workload makes them.

    Copy k scales its loads by (2 / count)(0.75 + 0.5 k / (count - 1)) and
    turns the loads at buses 8 and 13 into generators of twice that load;
    the copies attach round-robin to transmission buses 4..9.  Every copy
    has the same reduced shape, while its loss linearisation, and so its
    equality rows, depends on its loads.
    """
    data = resources.files("gridcoord").joinpath("data")
    tso, feeder = (
        gm.load_case(data.joinpath(name).read_text(encoding="utf-8"))
        for name in ("case9.json", "case15.json"))
    tso = replace(tso, gens=tuple(
        replace(g, p_max=gm.TSO_PMAX_FACTOR * g.p_max) for g in tso.gens))
    a2, a1, a0 = gm.DEFAULT_DSO_GEN_COST
    feeders = []
    for factor in np.linspace(0.75, 1.25, count):
        scale = 2.0 / count * factor
        buses, gens = [], list(feeder.gens)
        for b in feeder.buses:
            if b.id in (8, 13):
                cap = 2.0 * scale * b.p_load
                gens.append(gm.Generator(b.id, 0.0, cap, -0.5 * cap, 0.5 * cap,
                                         a2, a1, a0))
                b = replace(b, kind="generator", p_load=0.0, q_load=0.0)
            else:
                b = replace(b, p_load=scale * b.p_load,
                            q_load=scale * b.q_load)
            buses.append(b)
        feeders.append(replace(feeder, buses=tuple(buses), gens=tuple(gens)))
    links = tuple(gm.Interconnection(k + 1, 4 + k % 6, feeder.slack_id())
                  for k in range(count))
    return gm.Partition(tso, tuple(feeders), links)
