"""Sweep the starting consensus penalty weight on the built-in benchmark.

`run_admm` balances rho against its residuals from the starting weight on.
The converged consensus cost must not depend on where rho starts; only the
iteration path does.  Runs the benchmark from each starting weight, prints
a table with the weight each run ended at, and fails if any run misses
convergence or the costs spread by more than 1e-5 relative.

Run from the repository root:  python3 scripts/rho_sweep.py
"""
import argparse
import logging
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridcoord import admm_coordinator as ac
from gridcoord import grid_model as gm

COST_SPREAD_REL = 1e-5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="loss_linearized",
                        choices=["lindistflow", "loss_linearized"])
    parser.add_argument("--rhos", default="10,50,100",
                        help="comma-separated starting penalty weights")
    parser.add_argument("--tol", type=float, default=ac.DEFAULT_TOL)
    parser.add_argument("--max-iter", type=int, default=ac.DEFAULT_MAX_ITER)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    part = gm.load_builtin_benchmark()
    rhos = [float(r) for r in args.rhos.split(",")]
    rows = []
    for rho in rhos:
        res = ac.run_admm(part, args.model, rho=rho, tol=args.tol,
                          max_iter=args.max_iter)
        rows.append((rho, res))

    print(f"{'rho':>8}  {'final rho':>9}  {'iterations':>10}  "
          f"{'converged':>9}  {'total cost':>16}")
    for rho, res in rows:
        print(f"{rho:8.1f}  {res.state.rho:9g}  {res.iterations:10d}  "
              f"{str(res.converged):>9}  {res.total_cost:16.8f}")

    ok = True
    if not all(res.converged for _, res in rows):
        print("FAIL: at least one weight did not converge")
        ok = False
    costs = [res.total_cost for _, res in rows]
    spread = (max(costs) - min(costs)) / abs(min(costs))
    print(f"relative cost spread: {spread:.3e}  (limit {COST_SPREAD_REL:g})")
    if spread > COST_SPREAD_REL:
        print("FAIL: converged cost depends on the penalty weight")
        ok = False
    iter_counts = sorted({res.iterations for _, res in rows})
    print(f"iteration counts: {iter_counts}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
