"""Generate the built-in benchmark fixture and verify its tuning targets.

Writes src/gridcoord/data/case9.json (transmission template) and
src/gridcoord/data/case15.json (radial feeder template).  The composed
study system is the transmission grid with tripled generator capacity
plus two copies of the feeder in which selected loads are swapped for
local generators (see gridcoord.grid_model.compose_benchmark).

Tuning targets, checked after writing:
  * the transmission marginal price at the coordinated optimum stays
    well below the feeder generators' marginal cost at zero output
    (5.0 $/p.u.), so the cheapest coordination imports the feeders'
    whole net load and feeder units stay idle;
  * transmission units 2 and 3 sit strictly inside their boxes;
  * feeder voltages keep at least 0.03 p.u.^2 margin to the band;
  * interface reactive flows stay under the interface rating;
  * every feasible-operating-region projection is nonempty, bounded,
    and contains the centralized interface point.

Run from the repository root:  python3 scripts/make_benchmark.py
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridcoord import grid_model as gm
from gridcoord import powerflow_models as pm
from gridcoord import projection as pj
from gridcoord.opt_core import OPTIMAL, solve_qp

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "gridcoord", "data")

# Feeder load scale: kW values below are multiplied by LOAD_SCALE * 1e-5
# to give per-unit loads on the 100 MVA system base.  500 puts the
# transmission marginal price near 2.5 $/p.u. at the optimum, far under
# the 5.0 $/p.u. feeder generators, with ~0.12 p.u.^2 worst voltage drop.
LOAD_SCALE = 500.0
Z_BASE_OHM = 484.0  # impedance normalization for the feeder tables

# 9-bus transmission system (3 generators, 3 loads).  Loads and costs are
# the classic values in per-unit terms; line ratings are left unlimited in
# the benchmark composition (the meshed template with ratings lives in
# tests/data/case9.m).  Generator p_max here is the template value; the
# benchmark composer triples it.
TSO_BUSES = [
    (1, "slack", 0.0, 0.0),
    (2, "generator", 0.0, 0.0),
    (3, "generator", 0.0, 0.0),
    (4, "load", 0.0, 0.0),
    (5, "load", 0.9, 0.3),
    (6, "load", 0.0, 0.0),
    (7, "load", 1.0, 0.35),
    (8, "load", 0.0, 0.0),
    (9, "load", 1.25, 0.5),
]
TSO_LINES = [
    (1, 4, 0.0, 0.0576),
    (4, 5, 0.017, 0.092),
    (5, 6, 0.039, 0.17),
    (3, 6, 0.0, 0.0586),
    (6, 7, 0.0119, 0.1008),
    (7, 8, 0.0085, 0.072),
    (8, 2, 0.0, 0.0625),
    (8, 9, 0.032, 0.161),
    (9, 4, 0.01, 0.085),
]
TSO_GENS = [
    # bus, p_min, p_max, q_min, q_max, a2, a1, a0
    (1, 0.1, 2.5, -3.0, 3.0, 0.11, 5.0, 150.0),
    (2, 0.1, 3.0, -3.0, 3.0, 0.085, 1.2, 600.0),
    (3, 0.1, 2.7, -3.0, 3.0, 0.1225, 1.0, 335.0),
]

# Widely used 15-bus rural radial feeder: line impedances in ohms,
# loads in kW / kVAr.  Bus 1 is the substation (feeder root).
FEEDER_LINES_OHM = [
    (1, 2, 1.35309, 1.32349),
    (2, 3, 1.17024, 1.14464),
    (3, 4, 0.84111, 0.82271),
    (4, 5, 1.52348, 1.02760),
    (2, 9, 2.01317, 1.35790),
    (9, 10, 1.68671, 1.13770),
    (2, 6, 2.55727, 1.72490),
    (6, 7, 1.08820, 0.73400),
    (6, 8, 1.25143, 0.84410),
    (3, 11, 1.79553, 1.21110),
    (11, 12, 2.44845, 1.65150),
    (12, 13, 2.01317, 1.35790),
    (4, 14, 2.23081, 1.50470),
    (4, 15, 1.19702, 0.80740),
]
FEEDER_LOADS_KW = {
    2: (44.1, 44.99),
    3: (70.0, 71.41),
    4: (140.0, 142.82),
    5: (44.1, 44.99),
    6: (140.0, 142.82),
    7: (140.0, 142.82),
    8: (70.0, 71.41),
    9: (70.0, 71.41),
    10: (44.1, 44.99),
    11: (140.0, 142.82),
    12: (70.0, 71.41),
    13: (44.1, 44.99),
    14: (70.0, 71.41),
    15: (140.0, 142.82),
}


def build_tso_case() -> gm.GridCase:
    buses = tuple(gm.Bus(i, kind, p, q) for i, kind, p, q in TSO_BUSES)
    lines = tuple(gm.Line(f, t, r, x, 0.0) for f, t, r, x in TSO_LINES)
    gens = tuple(gm.Generator(b, lo, hi, qlo, qhi, a2, a1, a0)
                 for b, lo, hi, qlo, qhi, a2, a1, a0 in TSO_GENS)
    return gm.GridCase(100.0, buses, lines, gens)


def build_feeder_case() -> gm.GridCase:
    scale = LOAD_SCALE * 1e-5
    buses = [gm.Bus(1, "slack", 0.0, 0.0)]
    for i in range(2, 16):
        p_kw, q_kvar = FEEDER_LOADS_KW[i]
        buses.append(gm.Bus(i, "load", p_kw * scale, q_kvar * scale))
    lines = tuple(gm.Line(f, t, r / Z_BASE_OHM, x / Z_BASE_OHM, 0.0)
                  for f, t, r, x in FEEDER_LINES_OHM)
    return gm.GridCase(100.0, tuple(buses), lines, ())


def check(label, ok, detail=""):
    mark = "ok " if ok else "FAIL"
    print(f"  [{mark}] {label}" + (f"  ({detail})" if detail else ""))
    return bool(ok)


def verify(part) -> bool:
    good = True
    for kind in ("lindistflow", "loss_linearized"):
        print(f"model: {kind}")
        cp = pm.assemble_centralized(part, kind)
        sol = solve_qp(cp.qp, tol=1e-9)
        good &= check("centralized solve optimal", sol.status == OPTIMAL,
                      f"status={sol.status} cost={sol.objective:.4f}")
        if sol.status != OPTIMAL:
            continue
        x = sol.x
        tso_gp = x[np.array(cp.tso.vmap.span("gen_p"))]
        lam = 2.0 * 0.1225 * tso_gp[2] + 1.0
        print(f"  transmission dispatch: {np.round(tso_gp, 4)}  "
              f"marginal price ~ {lam:.4f}")
        good &= check("unit 1 held at its minimum", abs(tso_gp[0] - 0.1) < 1e-6)
        good &= check("units 2 and 3 strictly interior",
                      0.5 < tso_gp[1] < 8.5 and 0.5 < tso_gp[2] < 7.6,
                      f"g2={tso_gp[1]:.3f} g3={tso_gp[2]:.3f}")
        good &= check("marginal price well under feeder 5.0",
                      2.0 < lam < 3.5, f"{lam:.4f}")
        for k, dso in enumerate(cp.dsos):
            off = cp.offsets[1 + k]
            xd = x[off:off + dso.vmap.n]
            gp = xd[np.array(dso.vmap.span("gen_p"))]
            nu = xd[np.array(dso.vmap.span("nu"))]
            z = xd[np.array(dso.vmap.coupling_triple(0))]
            case = part.dsos[k]
            net_p = sum(b.p_load for b in case.buses)
            good &= check(f"dso{k + 1} units idle", np.all(np.abs(gp) < 1e-6),
                          f"max={np.abs(gp).max():.2e}")
            good &= check(f"dso{k + 1} voltage margin",
                          nu.min() > 0.84 and nu.max() < 1.18,
                          f"nu in [{nu.min():.4f}, {nu.max():.4f}]")
            good &= check(f"dso{k + 1} reactive import under rating",
                          abs(z[1]) < 9.0, f"q_if={z[1]:.4f}")
            if kind == "lindistflow":
                good &= check(f"dso{k + 1} imports exactly its net load",
                              abs(z[0] - net_p) < 1e-6,
                              f"p_if={z[0]:.6f} net={net_p:.6f}")
            else:
                good &= check(f"dso{k + 1} imports net load plus losses",
                              1e-4 < z[0] - net_p < 0.6,
                              f"p_if={z[0]:.6f} net={net_p:.6f}")
            model = pm.build_dso_model(case, part.links[k], kind)
            region = pj.coupling_region(model)
            center, radius = pj.chebyshev_centers([region])[0]
            good &= check(f"dso{k + 1} region nonempty and bounded",
                          0.01 < radius < 1e3,
                          f"rows={region.n_rows} radius={radius:.4f}")
            good &= check(f"dso{k + 1} region holds the centralized point",
                          pj.contains(region, z, slack=1e-6),
                          f"z={np.round(z, 4)}")
    return good


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Writes case9.json and case15.json under src/gridcoord/data "
               "and checks the tuning targets; takes no options.",
    ).parse_args(argv)
    tso = build_tso_case()
    feeder = build_feeder_case()
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, case in (("case9.json", tso), ("case15.json", feeder)):
        path = os.path.join(OUT_DIR, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gm.serialize_case(case) + "\n")
        print(f"wrote {os.path.relpath(path)}")

    part = gm.load_builtin_benchmark()
    total = sum(b.p_load for b in part.dsos[0].buses) + sum(
        b.p_load for b in part.dsos[1].buses)
    print(f"composed benchmark: {len(part.dsos)} feeders, "
          f"net feeder load {total:.4f} p.u.")
    if not verify(part):
        print("tuning verification FAILED")
        return 1
    print("tuning verification passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
