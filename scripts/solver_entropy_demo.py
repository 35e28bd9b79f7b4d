#!/usr/bin/env python3
"""Entropy production of the grid solver relaxing toward the exponential law.

Integrates the one-type collision equation from a flat initial density and
prints relative entropy against the mean-matched exponential at each
snapshot, together with the max-norm distance to the limit profile.
"""

import argparse

import numpy as np

import enerkin as ek


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x-max", type=float, default=20.0)
    ap.add_argument("--cells", type=int, default=2000)
    ap.add_argument("--dt", type=float, default=None, help="rk4's fixed step (rk4 only, required)")
    ap.add_argument("--rtol", type=float, default=None, help="dopri5's tolerance (default 1e-8)")
    ap.add_argument("--t-end", type=float, default=20.0)
    ap.add_argument("--scheme", choices=ek.solver.SCHEMES, default="dopri5")
    ap.add_argument("--hi", type=float, default=2.0, help="upper edge of the flat start")
    args = ap.parse_args()

    grid0 = ek.DensityGrid.from_families([ek.UniformDensity(0.0, args.hi)], args.x_max, args.cells)
    tt = ek.TypeTable(np.array([0.0]))
    # the one-type equation: constant unit rate, uniform energy split
    net = ek.ReactionNetwork(
        tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))]
    )
    beta = 1.0 / ek.mean_energy(grid0, tt)  # conserved mean fixes the limit
    f0 = ek.TypedDensity((ek.Exponential(beta),), (1.0,))

    times = tuple(np.round(np.linspace(0.0, args.t_end, 21), 10))
    cfg = ek.SolverConfig(
        t_end=args.t_end,
        dt=args.dt,
        scheme=args.scheme,
        rtol=args.rtol,
        network=net,
        snapshot_times=times,
    )
    snaps = ek.integrate(grid0, cfg)

    print(
        f"beta from initial mean: {beta:.6f}; scheme={args.scheme}, dt={args.dt}, "
        f"rtol={args.rtol}; {snaps.rhs_evals} right-hand sides, "
        f"{snaps.steps_accepted} steps accepted, {snaps.steps_rejected} rejected"
    )
    print(f"{'time':>8} {'entropy':>12} {'mass':>10} {'max|rho - limit|':>18}")
    for t, grid in snaps:
        h = ek.relative_entropy(grid, f0, grid)
        err = float(np.max(np.abs(grid.values[0] - ek.Exponential(beta).pdf(grid.centers))))
        print(f"{t:8.2f} {h:12.6f} {ek.mass(grid):10.6f} {err:18.3e}")
    res = ek.entropy_monotonicity_check(snaps, f0)
    print(f"entropy nondecreasing: {res.passed} (smallest step {res.min_delta:.2e})")


if __name__ == "__main__":
    main()
