#!/usr/bin/env python3
"""The derived product form of three two-type pair-reaction networks, checked two ways.

For each network below (unit constant rates and output weights unless stated,
beta = 1), prints the derived weight ratio pi_2/pi_1, ``product_form_residual``
of the derived weights at 1000 energies, and the L1 norm of ``CollisionPlan.rhs``
on the derived measure sampled at the cell centres of [0, x_max], for each
``--cells``.  Beside each row stands the same figure for naive weights, which
leave out one factor of the pair-reaction rule: the solver's L1 falls with the
cell size on the derived weights only.

* A: I = (0, 1), canonical Gamma(1/2, 1) laws; (1,1) -> {(1,1), (2,2)},
  (1,2) -> {(1,2)}, (2,2) -> {(2,2), (1,1)}; x_max = 20.  Naive: 1:1, without
  the Boltzmann factor e^-1.
* B: I = (0, 0.7), canonical Gamma(1/2, 1) laws; (1,1) -> {(1,1), (1,2), (2,1)},
  (1,2) -> {(1,2), (1,1)}; x_max = 20.  Naive: e^-0.7, the bare rates without
  the output shares 2/3 and 1/2 and the same-type factor 1/2.
* C: I = (0, 0), uniform kernels; (1,1) -> {(1,1), (2,2) at weight 2},
  (1,2) -> {(1,2)}, (2,2) -> {(2,2), (1,1)}; x_max = 30.  Naive: 1:1, without
  the output weights.

    PYTHONPATH=src python scripts/product_form_residual.py --cells 200 400 800 1600 3200
"""

import argparse
import math

import numpy as np

import enerkin as ek

GAMMA_HALF = ek.GammaDensity(0.5, 1.0)


def _network(internal, kind, outputs):
    def kernel(outs):
        if kind == "uniform":
            return ek.UniformKernel(outs)
        return ek.CanonicalKernel(outs, {1: GAMMA_HALF, 2: GAMMA_HALF})

    binary = [ek.BinaryChannel(p, ek.ConstantRate(1.0), kernel(o)) for p, o in outputs.items()]
    return ek.ReactionNetwork(ek.TypeTable(np.array(internal)), binary)


# name: (network, x_max, naive pi_2/pi_1)
NETWORKS = {
    "A": (
        _network((0.0, 1.0), "canonical", {
            (1, 1): [(1, 1, 1.0), (2, 2, 1.0)], (1, 2): [(1, 2, 1.0)], (2, 2): [(2, 2, 1.0), (1, 1, 1.0)],
        }),
        20.0, 1.0,
    ),
    "B": (
        _network((0.0, 0.7), "canonical", {
            (1, 1): [(1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], (1, 2): [(1, 2, 1.0), (1, 1, 1.0)],
        }),
        20.0, math.exp(-0.7),
    ),
    "C": (
        _network((0.0, 0.0), "uniform", {
            (1, 1): [(1, 1, 1.0), (2, 2, 2.0)], (1, 2): [(1, 2, 1.0)], (2, 2): [(2, 2, 1.0), (1, 1, 1.0)],
        }),
        30.0, 1.0,
    ),
}


def rhs_l1(network, measure, n: int, x_max: float) -> float:
    """L1 norm of the collision right-hand side on ``measure`` at the n cell centres."""
    h = x_max / n
    x = (np.arange(n) + 0.5) * h
    values = np.array([measure.pdf(v, x) for v in range(1, measure.n_types + 1)])
    return float(np.sum(np.abs(ek.CollisionPlan(network, n, x_max).rhs(values))) * h)


def _row(label: str, values, fmt: str) -> None:
    print(f"  {label:<22}" + "".join(f" {v:>12{fmt}}" for v in values))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", type=int, nargs="+", default=[200, 400, 800, 1600, 3200])
    args = parser.parse_args(argv)
    for name, (network, x_max, naive_ratio) in NETWORKS.items():
        derived = ek.product_form_measure(network, 1.0, n_check=1000)
        naive = ek.TypedDensity(derived.families, (1.0 / (1.0 + naive_ratio), naive_ratio / (1.0 + naive_ratio)))
        measures = (derived, naive)
        print(f"{f'network {name}, x_max = {x_max:g}':<24} {'derived':>12} {'naive':>12}")
        _row("pi_2/pi_1", [m.weights[1] / m.weights[0] for m in measures], ".6f")
        _row("residual", [ek.product_form_residual(network, m.weights, 1.0, n_check=1000) for m in measures], ".2e")
        for n in args.cells:
            _row(f"L1 rhs, n = {n}", [rhs_l1(network, m, n, x_max) for m in measures], ".2e")


if __name__ == "__main__":
    main()
