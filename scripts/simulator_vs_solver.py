#!/usr/bin/env python3
"""Finite-chain histograms against the deterministic solver.

Runs an ensemble of particle chains and the grid solver from matched initial
data, then prints per-bin z-scores of the pooled empirical histogram against
the solver's bin masses (multinomial error bars).  Large chains should sit
well inside 3 sigma at every bin.
"""

import argparse

import numpy as np

import enerkin as ek


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--particles", type=int, default=4000)
    ap.add_argument("--replicas", type=int, default=8)
    ap.add_argument("--times", type=float, nargs="+", default=[1.0, 5.0])
    ap.add_argument("--bins", type=int, default=20)
    ap.add_argument("--bin-max", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    tt = ek.TypeTable(np.array([0.0]))
    net = ek.ReactionNetwork(
        tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))]
    )
    edges = np.linspace(0.0, args.bin_max, args.bins + 1)
    cfg = ek.SimulatorConfig(
        network=net,
        initial_state=ek.TypeCountsInitial(
            counts=(args.particles,), energies=(ek.UniformDensity(0.0, 2.0),)
        ),
        t_end=max(args.times),
        snapshot_times=tuple(sorted(args.times)),
        seed=args.seed,
        replicas=args.replicas,
        histogram_edges=edges,
    )
    trajs = ek.run_ensemble(cfg)

    grid0 = ek.DensityGrid.from_families([ek.UniformDensity(0.0, 2.0)], 20.0, 2000)
    scfg = ek.SolverConfig(
        dt=0.01, t_end=max(args.times), scheme="rk4", network=net,
        snapshot_times=tuple(sorted(args.times)),
    )
    snaps = ek.integrate(grid0, scfg)

    n_total = args.particles * args.replicas
    for si, (t, grid) in enumerate(snaps):
        cells_per_bin = int(round((edges[1] - edges[0]) / grid.h))
        p_bin = np.array(
            [
                grid.values[0, b * cells_per_bin : (b + 1) * cells_per_bin].sum() * grid.h
                for b in range(args.bins)
            ]
        )
        counts = np.zeros(args.bins)
        for traj in trajs:
            hist, _ = np.histogram(traj.snapshots[si].state.kinetic_energies, bins=edges)
            counts += hist
        p_hat = counts / n_total
        sigma = np.sqrt(p_bin * (1 - p_bin) / n_total)
        z = (p_hat - p_bin) / np.maximum(sigma, 1e-12)
        print(f"\nt = {t}")
        print(f"{'bin':>12} {'solver p':>10} {'chain p':>10} {'z':>7}")
        for b in range(args.bins):
            tag = f"[{edges[b]:.1f},{edges[b+1]:.1f})"
            print(f"{tag:>12} {p_bin[b]:10.5f} {p_hat[b]:10.5f} {z[b]:7.2f}")
        print(f"worst |z| = {np.max(np.abs(z)):.2f}")


if __name__ == "__main__":
    main()
