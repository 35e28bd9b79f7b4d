"""Pinned SHA-256 digests of the collision operator's right-hand side.

``CollisionPlan.rhs`` and ``CollisionPlan.gain`` are deterministic: a fixed
network, grid and state give the same float64 bits on every call.  These
pins hold those bits for the networks the benchmark solves (two-type
canonical Gamma(2)/Exp(1) at n = 500, the three-channel uniform gap network
at n = 400 and n = 4000, the bundled one-type network at n = 2000) and for
three that reach the operator's other paths: loss gates that vary over the
pair sum, a canonical split below half a cell, a gap off the lattice, and
uniform and canonical deposits in one network.
A new digest means the operator computes in another order or by other
formulas, even where the values still agree to round-off.
"""

import hashlib

import numpy as np
import pytest

import enerkin as ek
from conftest import uniform_net

X_MAX = 20.0


def _canonical(ie=(0.0, 0.0), rate=ek.ConstantRate(1.0), gap_outputs=False):
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, rate, ek.CanonicalKernel(outs, dens))

    if gap_outputs:
        channels = [
            ch((1, 1), [(1, 1, 1.0), (2, 2, 0.5)]),
            ch((1, 2), [(1, 2, 1.0)]),
            ch((2, 2), [(1, 1, 1.0)]),
        ]
    else:
        channels = [ch((1, 1), [(1, 1, 1.0)]), ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0)])]
    return ek.ReactionNetwork(ek.TypeTable(np.array(ie)), channels)


def _gap(ie=(0.0, 0.5), low_rate=None):
    def ch(pair, outs, rate=ek.ConstantRate(1.0)):
        return ek.BinaryChannel(pair, rate, ek.UniformKernel(outs))

    if low_rate is None:
        low = ch((1, 1), [(1, 1, 1.0), (2, 2, 1.0)])
    else:
        low = ch((1, 1), [(2, 2, 1.0)], low_rate)
    return ek.ReactionNetwork(
        ek.TypeTable(np.array(ie)),
        [low, ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0), (1, 1, 1.0)])],
    )


def _mixed_kinds():
    """Canonical like pairs and a uniform cross pair: the two deposit kinds interleave."""
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}
    rate = ek.ConstantRate(1.0)
    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0, 0.0])),
        [
            ek.BinaryChannel((1, 1), rate, ek.CanonicalKernel([(1, 1, 1.0)], dens)),
            ek.BinaryChannel((1, 2), rate, ek.UniformKernel([(1, 2, 1.0)])),
            ek.BinaryChannel((2, 2), rate, ek.CanonicalKernel([(2, 2, 1.0)], dens)),
        ],
    )


TWO_TYPE_START = ([ek.UniformDensity(0.0, 4.0), ek.Exponential(1.0)], [0.55, 0.45])
GAP_START = ([ek.UniformDensity(0.0, 2.0), ek.UniformDensity(0.0, 1.5)], [0.6, 0.4])

# name: (network, cells, (start densities, weights))
CASES = {
    "canonical_500": (_canonical, 500, TWO_TYPE_START),
    "gap_400": (_gap, 400, GAP_START),
    "gap_4000": (_gap, 4000, GAP_START),
    "one_type_2000": (uniform_net, 2000, ([ek.UniformDensity(0.0, 2.0)], [1.0])),
    "canonical_gap_sum_decay_300": (
        lambda: _canonical((0.0, 0.3), ek.SumDecayRate(1.0, 0.2), gap_outputs=True),
        300,
        TWO_TYPE_START,
    ),
    "gap_off_lattice_sum_decay_400": (
        lambda: _gap((0.0, 0.37), ek.SumDecayRate(1.5, 0.4)),
        400,
        GAP_START,
    ),
    "mixed_kinds_400": (_mixed_kinds, 400, TWO_TYPE_START),
}

RHS_SHA256 = {
    "canonical_500": "282cbf0cee3c8672d81dcf68cc2d27a52421277b25e7e5026e10e70ccf32caa9",
    "gap_400": "d2b442327efdce7fabadeb7c287224ba1891c5263d8d4a5133b07ba964e6f85f",
    "gap_4000": "0135459ace1f9daaa503591991228defc96c3db342ad4b52aa975d74238f4190",
    "one_type_2000": "d6e971f001b1b199c5bd68b35f0ba4e31297ed20b4f5d174c703b222c0d34dd4",
    "canonical_gap_sum_decay_300": "d614569189da2d4ba624a08bebbc532cdc740662a37ee57610dbdad42ab5ad8e",
    "gap_off_lattice_sum_decay_400": "d83f98331ab86d13843a56edba72c3bc6d639e6d5042e2fbde465a0dee4026c4",
    "mixed_kinds_400": "75e3e84bd1693ac9d794641b378caab164a9ca1f3c180bfd4885345fb7347e46",
}


def rhs_digest(case):
    """SHA-256 over the float64 bytes of the plan's rhs, then its gain, on the
    case's start state."""
    make, cells, (families, weights) = CASES[case]
    grid = ek.DensityGrid.from_families(families, X_MAX, cells, weights=weights)
    plan = ek.CollisionPlan(make(), cells, X_MAX)
    h = hashlib.sha256()
    for part in (plan.rhs(grid.values), plan.gain(grid.values)):
        assert part.dtype == np.float64 and part.shape == grid.values.shape
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rhs_is_pinned(case):
    assert rhs_digest(case) == RHS_SHA256[case]
