#!/usr/bin/env python3
"""Cost of one collision right-hand side on the solver's benchmark networks.

For the networks of the ``grid_solver`` benchmark (two-type canonical
Gamma(2)/Exp(1) at n = 500, the three-channel uniform gap network at
n = 4000 and at n = 400, where its fine and coarse solves both run) and the
bundled one-type solve (n = 2000), all on [0, 20], prints the plan-build
time and the time of one ``CollisionPlan.rhs`` in ms, each the best of
``--repeat`` runs, with the Python and numpy versions.  ``--calls`` right-
hand sides are timed together in each run and the mean is reported, so a
cost of a few tens of microseconds stays above the timer's resolution.

    PYTHONPATH=src python scripts/rhs_cost.py --repeat 21 --calls 200
"""

import argparse
import platform
import time

import numpy as np

import enerkin as ek

X_MAX = 20.0


def canonical_network():
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel(outs, dens))

    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0, 0.0])),
        [ch((1, 1), [(1, 1, 1.0)]), ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0)])],
    )


def gap_network():
    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.UniformKernel(outs))

    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0, 0.5])),
        [
            ch((1, 1), [(1, 1, 1.0), (2, 2, 1.0)]),
            ch((1, 2), [(1, 2, 1.0)]),
            ch((2, 2), [(2, 2, 1.0), (1, 1, 1.0)]),
        ],
    )


def one_type_network():
    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0])),
        [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))],
    )


TWO_TYPE = ([ek.UniformDensity(0.0, 4.0), ek.UniformDensity(0.0, 2.0)], [0.5, 0.5])
CASES = [
    ("canonical 2-type", canonical_network, 500, TWO_TYPE),
    ("uniform gap, 3 channels", gap_network, 400, TWO_TYPE),
    ("uniform gap, 3 channels", gap_network, 4000, TWO_TYPE),
    ("one-type (bundled)", one_type_network, 2000, ([ek.UniformDensity(0.0, 2.0)], [1.0])),
]


def best_ms(fn, repeat, calls):
    """Best over ``repeat`` runs of the mean time of ``calls`` calls of ``fn``, in ms."""
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return 1e3 * best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=15, help="runs per figure; the best is shown")
    ap.add_argument("--calls", type=int, default=100, help="right-hand sides per timed run")
    args = ap.parse_args()
    if args.repeat < 1 or args.calls < 1:
        ap.error("--repeat and --calls must be at least 1")

    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    print(f"best of {args.repeat}; {args.calls} right-hand sides per run; x_max = {X_MAX}")
    print(f"{'network':<26} {'n':>5} {'ms per rhs':>11} {'plan build ms':>14}")
    for name, make, n, (families, weights) in CASES:
        net = make()
        values = ek.DensityGrid.from_families(families, X_MAX, n, weights=weights).values
        build = best_ms(lambda: ek.CollisionPlan(net, n, X_MAX), args.repeat, 1)
        plan = ek.CollisionPlan(net, n, X_MAX)
        rhs = best_ms(lambda: plan.rhs(values), args.repeat, args.calls)
        print(f"{name:<26} {n:>5} {rhs:>11.4f} {build:>14.2f}")


if __name__ == "__main__":
    main()
