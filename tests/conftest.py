import math

import numpy as np
import pytest

import enerkin as ek


def uniform_net(alpha=1.0):
    """Single type, constant rate ``alpha``, uniform energy split: the one-type equation."""
    return ek.ReactionNetwork(
        ek.TypeTable(np.array([0.0])),
        [ek.BinaryChannel((1, 1), ek.ConstantRate(alpha), ek.UniformKernel([(1, 1, 1.0)]))],
    )


class SplitKernel(ek.ScatteringKernel):
    """A split law given as callables ``split_pdf_fn(first, second, e_avail, u)`` and
    ``split_sample_fn(first, second, e_avail, rng)``: a kernel that is neither
    uniform nor canonical, which the collision plan and the product form refuse."""

    kind = "custom"

    def __init__(self, outputs, split_pdf_fn, split_sample_fn):
        super().__init__(outputs)
        self._pdf = split_pdf_fn
        self._sample = split_sample_fn

    def split_pdf(self, out, e_avail, u):
        # split_pdf_fn takes one energy: one call per row of u
        u = np.asarray(u, dtype=float)
        return np.array([
            np.broadcast_to(self._pdf(out.first, out.second, e, row), row.shape)
            for e, row in zip(np.ravel(e_avail), u)
        ])

    def split_sample(self, out, e_avail, rng):
        return float(self._sample(out.first, out.second, e_avail, rng))


def quadrature_mass(density: ek.DensityFamily, x_cap: float = None, n: int = 200_001) -> float:
    """Midpoint-rule mass of a density, an independent probe of its normalization."""
    lo, hi = density.support()
    if x_cap is None:
        x_cap = hi if math.isfinite(hi) else lo + 60.0 * max(1.0, density.mean() - lo)
    xs = np.linspace(lo, x_cap, n)
    mid = 0.5 * (xs[1:] + xs[:-1])
    return float(np.sum(density.pdf(mid)) * (xs[1] - xs[0]))


def canonical_split(rho_a, rho_b):
    """(kernel, output): a canonical kernel whose one output (1, 2) splits by the
    laws rho_a and rho_b, for calling its ``split_sample`` and ``split_pdf``."""
    kernel = ek.CanonicalKernel([(1, 2, 1.0)], {1: rho_a, 2: rho_b})
    return kernel, kernel.outputs[0]


def feasible_outputs(kernel, v, t, v_other, t_other, types):
    """(indices, renormalized weights, available energies) of the feasible outputs at
    these inputs, read from the kernel's outcome table as ``sample_outcome`` reads it."""
    kinetic = t + t_other
    table = kernel._outcome_table(v, v_other, types)
    size = table.size(kinetic)
    idx, _ = table.subsets[size]
    return list(idx), table.weights[size, idx], [kinetic + table.releases[k] for k in idx]


# the two-type pair-reaction networks at unit rates: internal energies, kernel kind and
# each reactant pair's outputs (first type, second type, weight)
PAIR_NETWORKS = {
    "A": ((0.0, 1.0), "canonical", {
        (1, 1): [(1, 1, 1.0), (2, 2, 1.0)], (1, 2): [(1, 2, 1.0)], (2, 2): [(2, 2, 1.0), (1, 1, 1.0)],
    }),
    "B": ((0.0, 0.7), "canonical", {
        (1, 1): [(1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], (1, 2): [(1, 2, 1.0), (1, 1, 1.0)],
    }),
    "C": ((0.0, 0.0), "uniform", {
        (1, 1): [(1, 1, 1.0), (2, 2, 2.0)], (1, 2): [(1, 2, 1.0)], (2, 2): [(2, 2, 1.0), (1, 1, 1.0)],
    }),
}


def pair_reaction_network(name, law=None, rate=None, outputs=None):
    """Network ``name`` of PAIR_NETWORKS: canonical kernels take ``law`` (Gamma(1/2, 1) by
    default) for both types, ``rate`` (unit by default) replaces the rate of reactant
    pair (1, 1), and ``outputs`` maps reactant pairs to replacement output lists."""
    internal, kind, chans = PAIR_NETWORKS[name]
    law = law or ek.GammaDensity(0.5, 1.0)

    def kernel(outs):
        return ek.UniformKernel(outs) if kind == "uniform" else ek.CanonicalKernel(outs, {1: law, 2: law})

    binary = [
        ek.BinaryChannel(pair, rate if rate and pair == (1, 1) else ek.ConstantRate(1.0), kernel(outs))
        for pair, outs in {**chans, **(outputs or {})}.items()
    ]
    return ek.ReactionNetwork(ek.TypeTable(np.array(internal)), binary)


@pytest.fixture
def one_type_table():
    return ek.TypeTable(np.array([0.0]))


@pytest.fixture
def one_type_network():
    """Single type, constant unit rate, uniform energy split."""
    return uniform_net()


@pytest.fixture
def two_type_canonical_network():
    """Two types, type-preserving channels, canonical kernels from (Gamma(2,1), Exp(1))."""
    tt = ek.TypeTable(np.array([0.0, 0.0]))
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel(outs, dens))

    return ek.ReactionNetwork(
        tt,
        [ch((1, 1), [(1, 1, 1.0)]), ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0)])],
    )


@pytest.fixture
def unary_two_type_network():
    """Two isomers with a unit internal-energy gap and constant conversion rates."""
    tt = ek.TypeTable(np.array([0.0, 1.0]))
    return ek.ReactionNetwork(
        tt,
        unary=[
            ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
            ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0)),
        ],
    )
