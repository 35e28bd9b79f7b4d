import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as spint
from scipy.special import gammaln

import enerkin as ek
from conftest import PAIR_NETWORKS, SplitKernel, feasible_outputs, pair_reaction_network, uniform_net
from test_simulate import _oracle_network as simulate_oracle_network
from test_simulate_pins import gap_swap_network

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


@pytest.fixture
def one_type_w(one_type_network):
    return ek.CollisionRateDensity(one_type_network)


@pytest.fixture
def exp_f0():
    return ek.TypedDensity((ek.Exponential(1.0),), (1.0,))


def entropy_grid(x_max=60.0, n=20000):
    return ek.DensityGrid(x_max, np.zeros((1, n)))


class TestRelativeEntropy:
    def test_identical_densities_give_zero(self):
        g = entropy_grid()
        h = ek.relative_entropy([ek.Exponential(1.0)], [ek.Exponential(1.0)], g)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_exponential_pair_closed_form(self):
        # integral of 2 e^{-2x} (log(1/2) + x) dx = -log 2 + 1/2
        g = entropy_grid()
        h = ek.relative_entropy([ek.Exponential(2.0)], [ek.Exponential(1.0)], g)
        expected = -np.log(2.0) + 0.5
        quad, _ = spint.quad(lambda x: 2 * np.exp(-2 * x) * (np.log(0.5) + x), 0, 60)
        assert expected == pytest.approx(quad, abs=1e-10)
        assert h == pytest.approx(expected, abs=1e-5)

    def test_nonpositive_reference_faults(self):
        g = ek.DensityGrid(2.0, np.full((1, 10), 0.5))
        f0 = np.zeros((1, 10))
        with pytest.raises(ek.ValidationError):
            ek.relative_entropy(g, f0, g)

    def test_zero_cells_of_f_contribute_nothing(self):
        g = ek.DensityGrid(2.0, np.zeros((1, 10)))
        vals = np.zeros((1, 10))
        vals[0, :5] = 1.0  # mass 1 over [0, 1]
        h = ek.relative_entropy(vals, [ek.Exponential(1.0)], g)
        expected, _ = spint.quad(lambda x: 1.0 * (np.log(np.exp(-x)) - np.log(1.0)), 0, 1)
        assert h == pytest.approx(expected, abs=1e-2)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_entropy_nonpositive_for_normalized_pairs(self, seed):
        # Jensen: H(f, f0) <= 0 with equality only at f = f0
        rng = np.random.default_rng(seed)
        g = ek.DensityGrid(8.0, np.zeros((1, 64)))
        f = rng.uniform(0.1, 1.0, size=(1, 64))
        f /= f.sum() * g.h
        f0 = rng.uniform(0.1, 1.0, size=(1, 64))
        f0 /= f0.sum() * g.h
        assert ek.relative_entropy(f, f0, g) <= 1e-12


class TestDetailedBalance:
    def test_exponential_equilibrium(self, one_type_w, exp_f0, one_type_network):
        quads = ek.sample_conserving_quadruples(one_type_network, 1000, energy_scale=1.0)
        rep = ek.detailed_balance_residual(one_type_w, exp_f0, quads)
        assert rep.n_evaluated >= 1000
        assert rep.max_residual < 1e-12

    def test_any_rate_scale_and_beta(self, one_type_table):
        net = ek.ReactionNetwork(
            one_type_table,
            [ek.BinaryChannel((1, 1), ek.ConstantRate(2.5), ek.UniformKernel([(1, 1, 1.0)]))],
        )
        w = ek.CollisionRateDensity(net)
        f0 = ek.TypedDensity((ek.Exponential(0.7),), (1.0,))
        quads = ek.sample_conserving_quadruples(net, 300, energy_scale=1.0 / 0.7)
        assert ek.detailed_balance_residual(w, f0, quads).max_residual < 1e-12

    def test_perturbed_reference_fails(self, one_type_w, one_type_network):
        class Perturbed(ek.DensityFamily):
            def pdf(self, x):
                x = np.asarray(x, dtype=float)
                z = 1.0450126306076043  # normalizer of e^{-x} (1 + 0.1 sin x)
                return np.where(x >= 0, np.exp(-x) * (1 + 0.1 * np.sin(x)) / z, 0.0)

            def support(self):
                return (0.0, np.inf)

        quads = ek.sample_conserving_quadruples(one_type_network, 500, energy_scale=1.0)
        f0 = ek.TypedDensity((Perturbed(),), (1.0,))
        rep = ek.detailed_balance_residual(one_type_w, f0, quads)
        assert rep.max_residual > 1e-3

    def test_zero_rate_network_gives_zero(self, one_type_table, exp_f0):
        net = ek.ReactionNetwork(
            one_type_table,
            [ek.BinaryChannel((1, 1), ek.ConstantRate(0.0), ek.UniformKernel([(1, 1, 1.0)]))],
        )
        quads = ek.sample_conserving_quadruples(net, 100)
        rep = ek.detailed_balance_residual(ek.CollisionRateDensity(net), exp_f0, quads)
        assert rep.max_residual == 0.0

    def test_nonconserving_quadruples_skipped(self, one_type_w, exp_f0):
        bad = [((1, 0.5), (1, 0.5), (1, 10.0), (1, 10.0))]
        rep = ek.detailed_balance_residual(one_type_w, exp_f0, bad)
        assert rep.n_skipped == 1 and rep.n_evaluated == 0


class TestLocalEquilibriumAndFixedPoint:
    def test_exponential_chain(self, one_type_w, exp_f0, one_type_network):
        quads = ek.sample_conserving_quadruples(one_type_network, 100, energy_scale=1.0)
        pairs = [(q[0], q[1]) for q in quads]
        rep_le = ek.local_equilibrium_residual(one_type_w, exp_f0, pairs)
        assert rep_le.max_residual < 1e-8
        rep_fp = ek.fixed_point_residual(one_type_w, exp_f0, [q[0] for q in quads[:16]])
        assert rep_fp.max_residual < 1e-8

    def test_nonequilibrium_density_fails_le(self, one_type_w, one_type_network):
        f = ek.TypedDensity((ek.UniformDensity(0.0, 2.0),), (1.0,))
        pairs = [((1, 0.2), (1, 0.4)), ((1, 1.0), (1, 0.5)), ((1, 1.5), (1, 1.9))]
        rep = ek.local_equilibrium_residual(one_type_w, f, pairs)
        assert rep.max_residual > 1e-3

    def test_two_type_canonical_equilibrium(self, two_type_canonical_network):
        w = ek.CollisionRateDensity(two_type_canonical_network)
        f = ek.TypedDensity((ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0)), (0.5, 0.5))
        quads = ek.sample_conserving_quadruples(two_type_canonical_network, 60)
        rep_db = ek.detailed_balance_residual(w, f, quads)
        assert rep_db.max_residual < 1e-12
        rep_le = ek.local_equilibrium_residual(w, f, [(q[0], q[1]) for q in quads[:30]])
        assert rep_le.max_residual < 1e-6


@pytest.fixture(scope="module")
def relaxation_snapshots():
    g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 15.0, 600)
    cfg = ek.SolverConfig(
        dt=0.02, t_end=10.0, scheme="rk4", network=uniform_net(),
        snapshot_times=tuple(np.linspace(0, 10, 21)),
    )
    return ek.integrate(g, cfg)


class TestEntropyMonotonicity:
    def test_increasing_to_zero(self, relaxation_snapshots, exp_f0):
        res = ek.entropy_monotonicity_check(relaxation_snapshots, exp_f0)
        assert res.passed
        assert res.entropies[0] == pytest.approx(np.log(2) - 1, abs=5e-3)
        assert abs(res.entropies[-1]) < 5e-3

    def test_stationary_start_keeps_entropy_constant(self, exp_f0):
        g = ek.DensityGrid.from_families([ek.Exponential(1.0)], 30.0, 1000)
        cfg = ek.SolverConfig(
            dt=0.02, t_end=2.0, scheme="rk4", network=uniform_net(),
            snapshot_times=(0.0, 1.0, 2.0),
        )
        snaps = ek.integrate(g, cfg)
        res = ek.entropy_monotonicity_check(snaps, exp_f0)
        assert res.passed
        assert max(abs(h - res.entropies[0]) for h in res.entropies) < 1e-6

    def test_reversed_sequence_fails(self, relaxation_snapshots, exp_f0):
        res = ek.entropy_monotonicity_check(relaxation_snapshots[::-1], exp_f0)
        assert not res.passed


class TestAdditiveConservation:
    def test_exponential_pair_is_conserved(self, one_type_network, one_type_w):
        f = ek.TypedDensity((ek.Exponential(2.0),), (1.0,))
        f0 = ek.TypedDensity((ek.Exponential(1.0),), (1.0,))
        quads = ek.sample_conserving_quadruples(one_type_network, 200)
        rep = ek.additive_conservation_residual(f, f0, quads, w=one_type_w)
        assert rep.max_residual < 1e-12

    def test_identical_densities_zero(self, one_type_network, exp_f0):
        quads = ek.sample_conserving_quadruples(one_type_network, 50)
        rep = ek.additive_conservation_residual(exp_f0, exp_f0, quads)
        assert rep.max_residual == 0.0

    def test_non_exponential_generic_violation(self, one_type_network, exp_f0):
        f = ek.TypedDensity((ek.GammaDensity(2.0, 1.0),), (1.0,))
        quads = ek.sample_conserving_quadruples(one_type_network, 200, include_corners=False)
        rep = ek.additive_conservation_residual(f, exp_f0, quads)
        assert rep.max_residual > 1e-3

    def test_nonpositive_density_faults(self, one_type_network):
        f = ek.TypedDensity((ek.UniformDensity(0.0, 0.5),), (1.0,))
        f0 = ek.TypedDensity((ek.Exponential(1.0),), (1.0,))
        quads = [((1, 1.0), (1, 1.0), (1, 0.5), (1, 1.5))]
        with pytest.raises(ek.ValidationError):
            ek.additive_conservation_residual(f, f0, quads)


# ---------------------------------------------------------------------------
# The residual checks one point at a time, with the kernel density assembled from the
# outcome table's feasible outputs: the oracle of the batched checks, which must agree
# bit for bit.
# ---------------------------------------------------------------------------


def reference_kernel_density(kernel, v, t, v_other, t_other, v_out, u, v_out_other, types):
    idx, w, avail = feasible_outputs(kernel, v, t, v_other, t_other, types)
    for k, wk, e in zip(idx, w, avail):
        out = kernel.outputs[k]
        if (out.first, out.second) == (v_out, v_out_other) and e > 0.0:  # e = 0: a point mass
            u_arr = np.asarray(u, dtype=float)
            pdf = kernel.split_pdf(out, np.array([[e]]), u_arr.reshape(1, -1)).reshape(u_arr.shape)
            return np.where((u_arr >= 0) & (u_arr <= e), wk * pdf, 0.0)
    return np.zeros(np.shape(u)) if np.shape(u) else 0.0


def reference_outcome_density(net, v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b):
    ch = net.binary_channel(v_a, v_b)
    if ch is None:
        return np.zeros(np.shape(u_a)) if np.shape(u_a) else 0.0
    if (v_a, v_b) == ch.pair:
        return reference_kernel_density(ch.kernel, v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b, net.types)
    u_a = np.asarray(u_a, dtype=float)
    e = ek.available_kinetic_energy(t_a + t_b, (v_a, v_b), (v_out_a, v_out_b), net.types)
    if e < 0:
        return np.zeros_like(u_a)
    vals = reference_kernel_density(ch.kernel, v_b, t_b, v_a, t_a, v_out_b, e - u_a, v_out_a, net.types)
    return np.where((u_a >= 0) & (u_a <= e), vals, 0.0)


def reference_value(net, gamma, gamma1, gamma_p, gamma1_p):
    (v, x), (v1, x1) = gamma, gamma1
    (vp, xp), (v1p, x1p) = gamma_p, gamma1_p
    rate = float(np.asarray(net.pair_rate(vp, xp, v1p, x1p)))
    if rate == 0.0:
        return 0.0
    return rate * float(np.asarray(reference_outcome_density(net, vp, xp, v1p, x1p, v, x, v1)))


def reference_detailed_balance(net, f0, quads, tol=1e-9):
    ie = net.types.internal_energies
    worst, worst_pt, skipped, used = 0.0, None, 0, 0
    for quad in quads:
        (v, x), (v1, x1), (vp, xp), (v1p, x1p) = g, g1, gp, g1p = quad
        a, b = float(x + x1 + ie[v - 1] + ie[v1 - 1]), float(xp + x1p + ie[vp - 1] + ie[v1p - 1])
        if not abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
            skipped += 1
            continue
        used += 1
        fwd = reference_value(net, g, g1, gp, g1p) * f0.pdf(*gp) * f0.pdf(*g1p)
        bwd = reference_value(net, gp, g1p, g, g1) * f0.pdf(*g) * f0.pdf(*g1)
        r = abs(fwd - bwd)
        if r > worst:
            worst, worst_pt = r, quad
    return ek.ResidualReport(worst, used, skipped, worst_pt)


def reference_le_integral(net, f, gamma, gamma1, n_quad):
    (v, x), (v1, x1) = gamma, gamma1
    acc = 0.0
    f_here = f.pdf(v, x) * f.pdf(v1, x1)
    for vp in range(1, net.types.count + 1):
        for v1p in range(1, net.types.count + 1):
            e = ek.available_kinetic_energy(x + x1, (v, v1), (vp, v1p), net.types)
            if e < 0:
                continue
            h = e / n_quad
            xs = (np.arange(n_quad) + 0.5) * h
            ys = e - xs
            rate_vec = np.asarray(net.pair_rate(vp, xs, v1p, ys), dtype=float)
            if np.any(rate_vec > 0) and e > 0:
                dens = float(np.asarray(reference_outcome_density(net, vp, xs[0], v1p, ys[0], v, x, v1)))
                if dens:
                    fvals = f.pdf(vp, xs) * f.pdf(v1p, ys)
                    acc += float(np.sum(rate_vec * fvals)) * h * dens
            rate_here = float(np.asarray(net.pair_rate(v, x, v1, x1)))
            if rate_here > 0 and f_here > 0 and e > 0:
                dens_vec = np.asarray(reference_outcome_density(net, v, x, v1, x1, vp, xs, v1p))
                acc -= rate_here * f_here * float(np.sum(dens_vec)) * h
    return acc


def reference_local_equilibrium(net, f, pairs, n_quad=512):
    worst, worst_pt = 0.0, None
    for gamma, gamma1 in pairs:
        r = abs(reference_le_integral(net, f, gamma, gamma1, n_quad))
        if r > worst:
            worst, worst_pt = r, (gamma, gamma1)
    return ek.ResidualReport(worst, len(pairs), 0, worst_pt)


def reference_fixed_point(net, f, gammas, n_quad=256, partner_cap=40.0, n_partner=128):
    h1 = partner_cap / n_partner
    x1s = (np.arange(n_partner) + 0.5) * h1
    worst, worst_pt = 0.0, None
    for gamma in gammas:
        acc = 0.0
        for v1 in range(1, net.types.count + 1):
            for x1 in x1s:
                acc += reference_le_integral(net, f, gamma, (v1, float(x1)), n_quad) * h1
        r = abs(acc)
        if r > worst:
            worst, worst_pt = r, gamma
    return ek.ResidualReport(worst, len(gammas), 0, worst_pt)


def reference_additive_conservation(net, f, f0, quads):
    worst, worst_pt, used, skipped = 0.0, None, 0, 0
    for quad in quads:
        g, g1, gp, g1p = quad
        if reference_value(net, g, g1, gp, g1p) == 0.0 and reference_value(net, gp, g1p, g, g1) == 0.0:
            skipped += 1
            continue
        vals = [d.pdf(*s) for d in (f, f0) for s in quad]
        used += 1
        d_f, d_f0 = (
            math.log(a[2]) + math.log(a[3]) - math.log(a[0]) - math.log(a[1]) for a in (vals[:4], vals[4:])
        )
        r = abs(d_f - d_f0)
        if r > worst:
            worst, worst_pt = r, quad
    return ek.ResidualReport(worst, used, skipped, worst_pt)


def _oracle_network(tt, rate, kernels):
    return ek.ReactionNetwork(tt, [ek.BinaryChannel(p, rate, k) for p, k in kernels.items()])


def _gap_network():
    # (1,1) -> (2,2) needs kinetic energy 1.4, and (2,2) -> (2,2) is infeasible for no
    # row while (2,2) -> (1,1) releases 1.4: rows are infeasible for some outputs only
    return _oracle_network(ek.TypeTable(np.array([0.0, 0.7])), ek.ConstantRate(1.0), {
        (1, 1): ek.UniformKernel([(1, 1, 1.0), (2, 2, 3.0)]),
        (1, 2): ek.UniformKernel([(1, 2, 1.0), (2, 1, 2.0)]),
        (2, 2): ek.UniformKernel([(2, 2, 1.0), (1, 1, 0.5)]),
    })


def _table_kernel():
    # a triangular split law: density 2u/e^2 on [0, e]
    return SplitKernel(
        [(1, 1, 1.0)],
        split_pdf_fn=lambda a, b, e, u: np.where((u >= 0) & (u <= e), 2.0 * u / e**2, 0.0),
        split_sample_fn=lambda a, b, e, rng: e * np.sqrt(rng.uniform()),
    )


ONE_TYPE = ek.TypeTable(np.array([0.0]))
EXP = ek.TypedDensity((ek.Exponential(1.0),))
GAMMA_EXP = ek.TypedDensity((ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0)), (0.5, 0.5))
RESIDUAL_ORACLE_NETWORKS = {
    "one_type_uniform": (uniform_net, EXP),
    "two_type_canonical": (None, GAMMA_EXP),  # the conftest network
    "two_type_gap": (_gap_network, ek.TypedDensity((ek.Exponential(1.0), ek.Exponential(1.5)), (0.6, 0.4))),
    "sum_decay": (
        lambda: _oracle_network(ONE_TYPE, ek.SumDecayRate(1.5, 0.3), {(1, 1): ek.UniformKernel([(1, 1, 1.0)])}),
        ek.TypedDensity((ek.GammaDensity(2.0, 1.0),)),
    ),
    "table_kernel": (lambda: _oracle_network(ONE_TYPE, ek.ConstantRate(1.0), {(1, 1): _table_kernel()}), EXP),
}


def _fields(rep):
    return (rep.max_residual, rep.n_evaluated, rep.n_skipped, rep.worst_point)


class TestBatchedResidualsMatchOnePointAtATime:
    """Each batched check reports what the one-point loop reports, exactly."""

    @pytest.fixture(params=sorted(RESIDUAL_ORACLE_NETWORKS))
    def case(self, request):
        make, f = RESIDUAL_ORACLE_NETWORKS[request.param]
        net = request.getfixturevalue("two_type_canonical_network") if make is None else make()
        quads = ek.sample_conserving_quadruples(net, 120, seed=5)
        return net, ek.CollisionRateDensity(net), f, quads

    def test_detailed_balance(self, case):
        net, w, f, quads = case
        # a few off the conservation manifold, to be skipped
        quads = quads + [(g, g1, (vp, xp + 0.5), g1p) for g, g1, (vp, xp), g1p in quads[:3]]
        rep = ek.detailed_balance_residual(w, f, quads)
        assert type(rep.max_residual) is float and rep.n_skipped == 3
        assert _fields(rep) == _fields(reference_detailed_balance(net, f, quads))

    def test_local_equilibrium(self, case):
        net, w, f, quads = case
        pairs = [(q[0], q[1]) for q in quads[:20] + quads[-6:]]
        rep = ek.local_equilibrium_residual(w, f, pairs)
        assert type(rep.max_residual) is float
        assert _fields(rep) == _fields(reference_local_equilibrium(net, f, pairs))

    def test_fixed_point(self, case):
        net, w, f, quads = case
        gammas = [q[0] for q in quads[:2] + quads[-2:]]  # the last are corners: x = 0 or x = e
        rep = ek.fixed_point_residual(w, f, gammas)
        assert type(rep.max_residual) is float
        assert _fields(rep) == _fields(reference_fixed_point(net, f, gammas))

    def test_additive_conservation(self, case):
        net, w, _, quads = case
        f, f0 = (ek.TypedDensity((ek.Exponential(beta),) * net.types.count) for beta in (2.0, 1.0))
        rep = ek.additive_conservation_residual(f, f0, quads, w=w)
        assert type(rep.max_residual) is float
        assert _fields(rep) == _fields(reference_additive_conservation(net, f, f0, quads))


class TestKernelsAndConvolutions:
    def test_exponential_canonical_kernel_is_flat(self):
        t = 2.0
        for x in (0.0, 0.5, 1.3, 2.0):
            val = ek.canonical_split_pdf(ek.Exponential(3.0), ek.Exponential(3.0), t, x)
            assert val == pytest.approx(1.0 / t, rel=1e-10)

    def test_gamma_beta_reduction(self):
        val = ek.canonical_split_pdf(ek.GammaDensity(2, 1), ek.GammaDensity(1, 1), 1.0, 0.5)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_outside_interval_zero(self):
        assert ek.canonical_split_pdf(ek.Exponential(1.0), ek.Exponential(1.0), 1.0, 1.5) == 0.0

    def test_density_integrates_to_one(self):
        for pair, t in [
            ((ek.GammaDensity(2, 1), ek.Exponential(1.0)), 1.7),
            ((ek.GammaDensity(1.5, 2.0), ek.GammaDensity(3.0, 2.0)), 0.9),
        ]:
            val, _ = spint.quad(
                lambda x: float(ek.canonical_split_pdf(pair[0], pair[1], t, x)), 0, t
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_exponential_self_convolution(self):
        for x in (0.5, 1.0, 2.7):
            val = ek.convolution_density(ek.Exponential(1.0), ek.Exponential(1.0), x)
            assert val == pytest.approx(x * np.exp(-x), rel=1e-10)

    def test_zero_total(self):
        assert ek.convolution_density(ek.Exponential(1.0), ek.Exponential(1.0), 0.0) == 0.0

    def test_gamma_convolution_identity(self):
        for t in (0.3, 1.0, 4.2):
            val = ek.convolution_density(ek.GammaDensity(2, 1), ek.GammaDensity(3, 1), t)
            assert val == pytest.approx(float(ek.GammaDensity(5, 1).pdf(t)), abs=1e-8)

    def test_convolution_equality_gamma_split(self):
        xs = np.linspace(0.05, 10.0, 60)
        d = ek.convolution_equality_check(
            ek.GammaDensity(1, 2), ek.GammaDensity(3, 2),
            ek.GammaDensity(2, 2), ek.GammaDensity(2, 2), xs,
        )
        assert d < 1e-8

    def test_convolution_inequality_detected(self):
        xs = np.linspace(0.05, 10.0, 60)
        d = ek.convolution_equality_check(
            ek.Exponential(1.0), ek.Exponential(1.0),
            ek.Exponential(2.0), ek.Exponential(2.0), xs,
        )
        assert d > 0.1


class TestAdmissiblePairs:
    def test_exponential_memorylessness(self):
        xs = np.linspace(0, 8, 200)
        for gap in (0.3, 1.0, 2.5):
            r = ek.admissible_pair_check(ek.Exponential(1.3), ek.Exponential(1.3), gap, xs)
            assert r < 1e-12

    def test_shifted_construction(self):
        xs = np.linspace(0, 8, 200)
        rho2 = ek.GammaDensity(2.0, 1.0)
        rho1 = ek.Shifted(rho2, 1.0)
        assert ek.admissible_pair_check(rho1, rho2, 1.0, xs) < 1e-12

    def test_uniform_vs_exponential_fails(self):
        xs = np.linspace(0, 0.99, 100)
        r = ek.admissible_pair_check(ek.UniformDensity(0, 2), ek.Exponential(1.0), 1.0, xs)
        assert r > 0.3

    def test_null_conditioning_faults(self):
        with pytest.raises(ek.KernelSupportError):
            ek.admissible_pair_check(ek.UniformDensity(0, 1), ek.Exponential(1.0), 2.0, [0.1])

    def test_shared_exponential_admissible_across_incommensurable_gaps(self):
        # three types with irrationally related gaps all share one exponential
        internal = np.array([0.0, 1.0, 1.0 + np.sqrt(2.0)])
        xs = np.linspace(0, 10, 300)
        beta = 1.3
        for i in range(3):
            for j in range(i + 1, 3):
                gap = internal[j] - internal[i]
                r = ek.admissible_pair_check(ek.Exponential(beta), ek.Exponential(beta), gap, xs)
                assert r < 1e-12


# frozen oracles: the formulas of the restated stationary-weight functions the
# network-derived measure replaced


def _oracle_two_type_stationary(a12, a21, rho1, delta_i):
    """pi1 Y1 a12 = pi2 a21, with Y1 the mass of rho1 above the internal-energy gap."""
    y1 = 1.0 - float(rho1.cdf(delta_i))
    pi1 = a21 / (a21 + y1 * a12)
    return (pi1, 1.0 - pi1)


def _oracle_unary_stationary(p, nu, internal, beta):
    """p_v exp(-beta I_v) Gamma(nu_v) beta^(-nu_v), normalized."""
    p, nu, internal = (np.asarray(a, dtype=float) for a in (p, nu, internal))
    log_pi = np.log(p) - beta * internal + np.array([math.lgamma(x) for x in nu]) - nu * np.log(beta)
    pi = np.exp(log_pi - log_pi.max())
    return pi / pi.sum()


def _conversion_network(b, nu, internal, kernels=False):
    """Types with internal energies ``internal`` and, for each nonzero b[v, w], a
    conversion v -> w at rate b[v, w] (U - I_w)^(nu_w - 1) above I_w; with
    ``kernels``, each type also collides with its own type through a canonical
    Gamma(nu_v, 1) kernel, which fixes its shape even without conversions."""
    internal = np.asarray(internal, dtype=float)
    n = internal.size
    unary = [
        ek.UnaryChannel(v + 1, w + 1, ek.PowerGapRate(b[v][w], nu[w] - 1.0, internal[w]))
        for v in range(n) for w in range(n) if v != w and b[v][w] != 0
    ]
    binary = [
        ek.BinaryChannel(
            (v, v), ek.ConstantRate(1.0),
            ek.CanonicalKernel([(v, v, 1.0)], {v: ek.GammaDensity(nu[v - 1], 1.0)}),
        )
        for v in range(1, n + 1)
    ] if kernels else []
    return ek.ReactionNetwork(ek.TypeTable(internal), binary, unary)


class TestUnaryStationary:
    def test_symmetric_full_tail(self):
        net = _conversion_network([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [0.0, 0.0])
        pi = ek.product_form_measure(net, 1.0).weights
        assert pi == (pytest.approx(0.5), pytest.approx(0.5))
        assert pi == _oracle_two_type_stationary(1.0, 1.0, ek.Exponential(1.0), 0.0)

    def test_occupancy_matches_simulation(self, unary_two_type_network):
        # the M-particle chain with unary channels factorizes over particles,
        # so one run with many particles samples the one-particle chain
        pi1, pi2 = ek.product_form_measure(unary_two_type_network, 1.0).weights
        assert (pi1, pi2) == _oracle_two_type_stationary(1.0, 1.0, ek.Exponential(1.0), 1.0)
        m = 2000
        cfg = ek.SimulatorConfig(
            unary_two_type_network,
            ek.MixtureInitial(m, (pi1, pi2), (ek.Exponential(1.0), ek.Exponential(1.0))),
            t_end=20.0,
            seed=909,
        )
        traj = ek.run(cfg)
        frac1 = traj.final_state.type_counts(2)[0] / m
        sigma = np.sqrt(pi1 * pi2 / m)
        assert abs(frac1 - pi1) <= 3 * sigma


class TestEnergyDependentStationary:
    def test_worked_two_type_instance(self, unary_two_type_network):
        pi = np.array(ek.product_form_measure(unary_two_type_network, 1.0).weights)
        expected = np.array([1.0, np.exp(-1.0)])
        expected /= expected.sum()
        assert np.allclose(pi, expected, atol=1e-12)
        assert pi[0] == pytest.approx(0.7310585786300049)
        oracle = _oracle_unary_stationary([0.5, 0.5], [1.0, 1.0], [0.0, 1.0], 1.0)
        assert np.max(np.abs(pi - oracle)) <= 1e-15

    def test_collapses_to_p_when_parameters_equal(self):
        net = _conversion_network([[0.0, 0.7], [0.3, 0.0]], [2.0, 2.0], [1.0, 1.0])
        pi = ek.product_form_measure(net, 2.0).weights
        assert np.allclose(pi, [0.3, 0.7], atol=1e-12)

    def test_pointwise_balance_residual_small(self):
        b = np.array([[0.0, 2.0, 0.5], [1.0, 0.0, 1.0], [0.5, 2.0, 0.0]])
        p = np.array([0.2, 0.4, 0.4])
        # make (p, b) reversible: b_wv = p_v b_vw / p_w
        for v in range(3):
            for w in range(v + 1, 3):
                b[w, v] = p[v] * b[v, w] / p[w]
        nu, internal = [1.0, 2.0, 1.5], [0.0, 0.5, 2.0]
        net = _conversion_network(b, nu, internal)
        measure = ek.product_form_measure(net, 1.3)
        assert ek.product_form_residual(net, measure.weights, 1.3) < 1e-10
        oracle = _oracle_unary_stationary(p, nu, internal, 1.3)
        assert np.max(np.abs(np.array(measure.weights) - oracle)) <= 1e-15

    def test_matches_scipy_log_gamma(self):
        # shapes over [0.05, 150]; bound relative to the largest log Γ, as for the gamma pdf
        p = np.array([0.2, 0.5, 0.3])
        b = np.array([[0.0, 1.0, 0.4], [0.4, 0.0, 2.0], [0.0, 0.0, 0.0]])
        b[2, :2] = p[:2] * b[:2, 2] / p[2]
        internal, beta = np.array([0.0, 0.7, 1.9]), 1.3
        grid = np.geomspace(0.05, 150.0, 13)
        for k in range(grid.size):
            nu = grid[[k, (k + 5) % 13, (k + 9) % 13]]
            pi = np.array(ek.product_form_measure(_conversion_network(b, nu, internal), beta).weights)
            log_pi = np.log(p) - beta * internal + gammaln(nu) - nu * np.log(beta)
            ref = np.exp(log_pi - log_pi.max())
            ref /= ref.sum()
            assert np.max(np.abs(pi / ref - 1.0)) <= 1e-14 * max(1.0, np.abs(gammaln(nu)).max())

    def test_irreversible_input_faults(self):
        # c_2 = c_1 and c_3 = c_1 / 2 from the conversions out of type 1, so 2 <-> 3 breaks
        b = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        net = _conversion_network(b, [1.0, 1.0, 1.0], [0.0, 1.0, 1.0])
        with pytest.raises(ek.ValidationError, match=r"conversions 2->3 and 3->2"):
            ek.product_form_measure(net, 1.0)

    def test_occupancy_matches_simulation_with_gap_power_rates(self):
        # the conversion-rate exponent and the gamma shape are tied: shape
        # nu implies rate (U - I_target)^(nu - 1); types then occupy the
        # closed-form stationary weights
        internal = np.array([0.0, 1.0])
        tt = ek.TypeTable(internal)
        net = ek.ReactionNetwork(
            tt,
            unary=[
                ek.UnaryChannel(1, 2, ek.PowerGapRate(1.0, 1.0, internal[1])),
                ek.UnaryChannel(2, 1, ek.PowerGapRate(1.0, 1.0, internal[0])),
            ],
        )
        pi = ek.product_form_measure(net, 1.0).weights
        m = 1500
        cfg = ek.SimulatorConfig(
            net,
            ek.MixtureInitial(
                m,
                (pi[0], pi[1]),
                (ek.GammaDensity(2.0, 1.0), ek.GammaDensity(2.0, 1.0)),
            ),
            t_end=6.0,
            seed=414,
        )
        traj = ek.run(cfg)
        frac1 = traj.final_state.type_counts(2)[0] / m
        sigma = np.sqrt(pi[0] * pi[1] / m)
        assert abs(frac1 - pi[0]) <= 3 * sigma
        # kinetic marginals should still look gamma within each type
        kin1 = traj.final_state.kinetic_energies[traj.final_state.type_ids == 1]
        assert ek.ks_distance(kin1, ek.GammaDensity(2.0, 1.0).cdf) < 1.36 / np.sqrt(kin1.size) * 1.5


def _uniform_channel(pair, outputs=None, rate=None):
    outputs = outputs or [(*pair, 1.0)]
    return ek.BinaryChannel(pair, rate or ek.ConstantRate(1.0), ek.UniformKernel(outputs))


def _two_isomers(forward, backward=None, binary=()):
    """Types at I = (0, 1) with the conversion 1 -> 2 at ``forward`` and, unless
    None, 2 -> 1 at ``backward``."""
    unary = [ek.UnaryChannel(1, 2, forward)]
    if backward is not None:
        unary.append(ek.UnaryChannel(2, 1, backward))
    return ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 1.0])), list(binary), unary)


def _pair_share_steps():
    """Gamma(1/2) laws at I = (0, 1, 2), where (1, 1) also becomes (3, 3): the share of
    (2, 2) in the (1, 1) collisions steps from 1/2 to 1/3 at kinetic energy 4."""
    dens = {t: ek.GammaDensity(0.5, 1.0) for t in (1, 2, 3)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel(outs, dens))

    return ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 1.0, 2.0])), [
        ch((1, 1), [(1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)]),
        ch((2, 2), [(2, 2, 1.0), (1, 1, 1.0)]),
        ch((3, 3), [(3, 3, 1.0), (1, 1, 1.0)]),
    ])


# networks without a product form, and what the refusal must name
NO_PRODUCT_FORM = {
    "callable_unary_rate": (
        lambda: _two_isomers(ek.CallableUnaryRate(lambda u: 1.0 + 0.0 * u), ek.ConstantUnaryRate(1.0)),
        r"unary channel 1->2: rate CallableUnaryRate",
    ),
    "power_gap_threshold": (
        lambda: _two_isomers(ek.PowerGapRate(1.0, 0.0, 0.5), ek.ConstantUnaryRate(1.0)),
        r"unary channel 1->2: rate PowerGapRate\(1.0, 0.0, 0.5\) is not .*threshold I_target = 1.0",
    ),
    "two_shapes": (
        lambda: _two_isomers(
            ek.ConstantUnaryRate(1.0), ek.PowerGapRate(1.0, 1.0, 0.0), [_uniform_channel((1, 1))]
        ),
        r"unary channel 2->1: gives type 1 shape 2.0, but reactant pair \(1, 1\) gives it 1.0",
    ),
    "mixed_beta_canonical": (
        lambda: ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 0.0])), [ek.BinaryChannel(
            (1, 2), ek.ConstantRate(1.0),
            ek.CanonicalKernel([(1, 2, 1.0)], {1: ek.GammaDensity(2.0, 2.0), 2: ek.Exponential(1.0)}),
        )]),
        r"reactant pair \(1, 2\): canonical densities need one common beta",
    ),
    "table_kernel": (
        lambda: ek.ReactionNetwork(ONE_TYPE, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), _table_kernel())]),
        r"reactant pair \(1, 1\): kernel kind 'custom' is simulator-only",
    ),
    "callable_collision_rate": (
        lambda: ek.ReactionNetwork(ONE_TYPE, [_uniform_channel((1, 1), rate=ek.CallableRate(lambda t, tp: 1.0))]),
        r"reactant pair \(1, 1\): rate CallableRate\(custom\) is not a function of the energy sum",
    ),
    "one_way_conversion": (
        lambda: _two_isomers(ek.ConstantUnaryRate(1.0)),
        r"unary channel 1->2: has no reverse channel 2->1",
    ),
    "unbalanced_cycle": (
        lambda: _conversion_network(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]
        ),
        r"conversions 2->3 and 3->2: break c_v b_vw = c_w b_wv",
    ),
    "type_changing_collision": (
        lambda: ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0, 0.0])), [_uniform_channel((1, 1), [(2, 2, 1.0)])]
        ),
        r"type 1: no channel fixes its kinetic law",
    ),
    "simulate_oracle_network": (
        lambda: simulate_oracle_network("constant"),
        r"unary channel 3->2: has no reverse channel 2->3",
    ),
    "gap_swap_network": (
        gap_swap_network,
        r"reactant pair \(1, 1\): output \(2, 2\): summed shapes 2.0 and 2.0 across a release of -2.0",
    ),
    "pair_exponential_laws": (
        lambda: pair_reaction_network("A", law=ek.Exponential(1.0)),
        r"reactant pair \(1, 1\): output \(2, 2\): summed shapes 2.0 and 2.0 across a release of -2.0",
    ),
    "pair_without_reverse": (
        lambda: pair_reaction_network("A", outputs={(2, 2): [(2, 2, 1.0)]}),
        r"reactant pair \(1, 1\): output \(2, 2\) has no reverse, an output \(1, 1\) of reactant pair \(2, 2\)",
    ),
    "pair_sum_decay_rate": (
        lambda: pair_reaction_network("A", rate=ek.SumDecayRate(1.0, 0.5)),
        r"reactant pair \(1, 1\): output \(2, 2\) changes types, which needs a positive constant "
        r"rate, not SumDecayRate",
    ),
    "pair_zero_rate": (
        lambda: pair_reaction_network("A", rate=ek.ConstantRate(0.0)),
        r"reactant pair \(1, 1\): output \(2, 2\) changes types, which needs a positive constant "
        r"rate, not ConstantRate\(0.0\)",
    ),
    "pair_share_steps": (
        lambda: _pair_share_steps(),
        r"reactant pair \(1, 1\): the share of output \(2, 2\) steps from 0.5 to 0.333",
    ),
    "pair_four_types": (
        lambda: ek.ReactionNetwork(ek.TypeTable(np.zeros(4)), [
            _uniform_channel((1, 2), [(1, 2, 1.0), (3, 4, 1.0)]),
            _uniform_channel((3, 4), [(3, 4, 1.0), (1, 2, 1.0)]),
        ]),
        r"reactant pair \(1, 2\): output \(3, 4\): joins the weights of types \[1, 2, 3, 4\]",
    ),
    "type_without_channel": (
        lambda: ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 0.0])), [_uniform_channel((1, 1))]),
        r"type 2: no channel fixes its kinetic law",
    ),
}

BUNDLED_SCENARIOS = ["exponential_equilibrium", "two_type_canonical", "unary_two_type"]


class TestProductFormMeasure:
    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_equals_the_bundled_reference(self, name):
        # the scenario files still restate the measure in analysis.reference
        sc = ek.load_scenario(SCENARIO_DIR / f"{name}.json")
        measure = ek.product_form_measure(sc.network, 1.0)
        assert np.max(np.abs(np.subtract(measure.weights, sc.reference.weights))) <= 1e-15
        xs = np.linspace(0.05, 20.0, 400)
        for got, ref in zip(measure.families, sc.reference.families, strict=True):
            want = ref.pdf(xs)
            assert np.max(np.abs(got.pdf(xs) - want) / want) <= 1e-14
        if name == "unary_two_type":
            probs = sc.initial.probabilities
            assert np.max(np.abs(np.subtract(measure.weights, probs))) <= 1e-15
            assert measure.weights == (0.7310585786300049, 0.2689414213699951)

    @pytest.mark.parametrize("case", sorted(NO_PRODUCT_FORM))
    def test_refuses_a_network_without_one(self, case):
        make, named = NO_PRODUCT_FORM[case]
        with pytest.raises(ek.ValidationError, match=named):
            ek.product_form_measure(make(), 1.0)

    def test_classes_without_conversions_take_c_one(self):
        # collisions keep each type, so each type keeps its count: c = 1 for both
        net = ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0, 1.0])), [_uniform_channel((1, 1)), _uniform_channel((2, 2))]
        )
        pi = np.array(ek.product_form_measure(net, 2.0).weights)
        assert np.max(np.abs(pi - _oracle_unary_stationary([1.0, 1.0], [1.0, 1.0], [0.0, 1.0], 2.0))) <= 1e-15

    def test_shapes_come_from_kernels_and_conversions(self):
        kernel = ek.CanonicalKernel([(1, 1, 1.0)], {1: ek.GammaDensity(3.0, 5.0)})
        binary = [ek.BinaryChannel((1, 1), ek.SumDecayRate(1.0, 0.5), kernel)]
        net = _two_isomers(ek.PowerGapRate(0.5, 0.5, 1.0), ek.PowerGapRate(2.0, 2.0, 0.0), binary)
        measure = ek.product_form_measure(net, 0.8)
        assert [f.gamma_shape() for f in measure.families] == [(3.0, 0.8), (1.5, 0.8)]
        assert ek.product_form_residual(net, measure.weights, 0.8) <= 1e-10
        # c_2 = c_1 b_12 / b_21
        oracle = _oracle_unary_stationary([1.0, 0.25], [3.0, 1.5], [0.0, 1.0], 0.8)
        assert np.max(np.abs(np.array(measure.weights) - oracle)) <= 1e-15

    def test_residual_reads_the_weights(self, unary_two_type_network):
        assert ek.product_form_residual(unary_two_type_network, (0.5, 0.5), 1.0) > 0.5
        pi = ek.product_form_measure(unary_two_type_network, 2.0).weights
        assert ek.product_form_residual(unary_two_type_network, pi, 2.0) <= 1e-10
        assert ek.product_form_residual(unary_two_type_network, pi, 1.0) > 0.5

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_bad_beta(self, unary_two_type_network, beta):
        with pytest.raises(ek.ValidationError, match="gamma rate must be positive"):
            ek.product_form_measure(unary_two_type_network, beta)


# pi_2 / pi_1 of each pair-reaction network's derived measure at beta = 1
PAIR_RATIOS = {"A": math.exp(-1.0), "B": 2.0 / 3.0 * math.exp(-0.7), "C": math.sqrt(4.0 / 3.0)}


def _rhs_l1(net, measure, n, x_max):
    """L1 norm of ``CollisionPlan.rhs`` on ``measure`` sampled at the n cell centres."""
    h = x_max / n
    x = (np.arange(n) + 0.5) * h
    values = np.array([measure.pdf(v, x) for v in range(1, measure.n_types + 1)])
    return float(np.sum(np.abs(ek.CollisionPlan(net, n, x_max).rhs(values))) * h)


class TestPairReactions:
    @pytest.mark.parametrize("name", sorted(PAIR_NETWORKS))
    def test_derives_the_weights(self, name):
        net = pair_reaction_network(name)
        measure = ek.product_form_measure(net, 1.0, n_check=1000)
        pi1, pi2 = measure.weights
        assert pi2 / pi1 == pytest.approx(PAIR_RATIOS[name], rel=1e-12)
        nu = 1.0 if name == "C" else 0.5
        assert [f.gamma_shape() for f in measure.families] == [(nu, 1.0), (nu, 1.0)]
        assert ek.product_form_residual(net, measure.weights, 1.0, n_check=1000) <= 1e-10
        assert ek.product_form_residual(net, (0.5, 0.5), 1.0, n_check=1000) > 0.1

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_solver_residual_falls_with_the_cell_size(self, name):
        # measured 1.5x per halving of h (about h^0.55, slowed by the x^(-1/2) endpoint
        # of Gamma(1/2)); weights that leave out a factor of the rule stay near 0.05-0.2
        net = pair_reaction_network(name)
        measure = ek.product_form_measure(net, 1.0)
        l1 = [_rhs_l1(net, measure, n, 20.0) for n in (200, 400, 800, 1600)]
        assert all(coarse >= 1.3 * fine for coarse, fine in zip(l1, l1[1:])), l1

    def test_solver_residual_is_round_off_on_uniform_kernels(self):
        net = pair_reaction_network("C")
        measure = ek.product_form_measure(net, 1.0)
        for n in (200, 400, 800, 1600):
            assert _rhs_l1(net, measure, n, 30.0) <= 1e-12

    @pytest.mark.parametrize("name", ["A", "C"])
    def test_chain_keeps_the_derived_type_fraction(self, name):
        """The pooled type-2 fraction of 8 replicas of M = 2000 particles at t = 10 lies
        within 4 binomial sd, sqrt(pi_1 pi_2 / (8 M)), of pi_2; a chain with the derived
        stationary law fails with probability about 6e-5 under the normal approximation.
        C starts with every particle of type 1 and A from the derived mixture; the seed
        was fixed before the first run."""
        m, replicas = 2000, 8
        net = pair_reaction_network(name)
        measure = ek.product_form_measure(net, 1.0)
        if name == "C":
            start = ek.TypeCountsInitial((m, 0), measure.families)
        else:
            start = ek.MixtureInitial(m, measure.weights, measure.families)
        trajs = ek.run_ensemble(ek.SimulatorConfig(net, start, t_end=10.0, seed=31, replicas=replicas))
        frac = sum(int(t.final_state.type_counts(2)[1]) for t in trajs) / (m * replicas)
        pi1, pi2 = measure.weights
        assert abs(frac - pi2) <= 4.0 * math.sqrt(pi1 * pi2 / (m * replicas))

    def test_script_prints_the_three_networks(self):
        # a smoke run of scripts/product_form_residual.py at two grid sizes (0.3 s)
        src = str(Path(ek.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "product_form_residual.py"), "--cells", "100", "200"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        )
        assert proc.returncode == 0, proc.stderr
        ratios = [line.split()[1:] for line in proc.stdout.splitlines() if "pi_2/pi_1" in line]
        assert [float(derived) for derived, _ in ratios] == [
            pytest.approx(PAIR_RATIOS[name], abs=1e-6) for name in "ABC"
        ]
        assert sum("L1 rhs, n = " in line for line in proc.stdout.splitlines()) == 6

    @pytest.mark.parametrize("b21", [1.0, 2.0])
    def test_conversions_and_pair_reactions_share_the_potentials(self, b21):
        # A with conversions 1 <-> 2 at rates b (U - I_target)^(-1/2), which give shape 1/2:
        # equal rates keep c_1 = c_2, and unequal ones break the cycle the two close
        base = pair_reaction_network("A")
        unary = [
            ek.UnaryChannel(1, 2, ek.PowerGapRate(1.0, -0.5, 1.0)),
            ek.UnaryChannel(2, 1, ek.PowerGapRate(b21, -0.5, 0.0)),
        ]
        net = ek.ReactionNetwork(base.types, base.binary, unary)
        if b21 == 1.0:
            pi1, pi2 = ek.product_form_measure(net, 1.0).weights
            assert pi2 / pi1 == pytest.approx(math.exp(-1.0), rel=1e-12)
        else:
            with pytest.raises(ek.ValidationError, match=(
                r"pair reaction \(1, 1\) <-> \(2, 2\): break c_v b_vw = c_w b_wv around a cycle of reactions"
            )):
                ek.product_form_measure(net, 1.0)


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_typed_density_refuses_non_finite_weights(weight):
    with pytest.raises(ek.ValidationError, match="probability vector"):
        ek.TypedDensity((ek.Exponential(1.0),), (weight,))
    with pytest.raises(ek.ValidationError, match="probability vector"):
        ek.TypedDensity((ek.Exponential(1.0), ek.Exponential(1.0)), (weight, 0.5))


def _ring(n: int, forward: float, backward: float) -> np.ndarray:
    """The rates of an n-state ring: ``forward`` from k to k + 1 mod n, ``backward`` back."""
    rates = np.zeros((n, n))
    for k in range(n):
        rates[k, (k + 1) % n], rates[(k + 1) % n, k] = forward, backward
    return rates


def _balanced_chain(n: int, seed: int) -> np.ndarray:
    """Rates c_ij / p_i with c symmetric: in detailed balance with the measure p."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 2.0, n)
    c = rng.uniform(0.5, 2.0, (n, n))
    rates = (c + c.T) / 2 / p[:, None]
    np.fill_diagonal(rates, 0.0)
    return rates


# (rates, passed, worst cycle, worst ratio, basis cycles): pairs with both rates positive
# minus the spanning forest's edges
KOLMOGOROV_CASES = {
    # one cycle, with forward/backward product 2^7
    "ring_7": lambda: (_ring(7, 2.0, 1.0), False, (1, 2, 3, 4, 5, 6, 7), 128.0, 1),
    "one_way_pair": lambda: ([[0.0, 1.0], [0.0, 0.0]], False, (1, 2), np.inf, 0),
    # state 3 is entered from state 2 and never left
    "one_way_state": lambda: (
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], False, (2, 3), np.inf, 0
    ),
    "balanced_40": lambda: (_balanced_chain(40, 3), True, (), 1.0, 40 * 39 // 2 - 39),
}


class TestKolmogorov:
    def test_symmetric_rates_pass(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0.5, 2.0, (5, 5))
        r = (r + r.T) / 2
        np.fill_diagonal(r, 0.0)
        res = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(r))
        assert res.passed

    def test_detailed_balanced_chain_passes(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.5, 2.0, 4)
        c = rng.uniform(0.5, 2.0, (4, 4))
        c = (c + c.T) / 2
        rates = c / p[:, None]
        np.fill_diagonal(rates, 0.0)
        res = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(rates))
        assert res.passed

    def test_planted_three_cycle(self):
        rates = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        res = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(rates))
        assert not res.passed
        assert res.worst_ratio == pytest.approx(2.0)
        assert res.worst_cycle == (1, 2, 3)

    def test_one_sided_zero_rate_fails(self):
        rates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        res = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(rates))
        assert not res.passed
        assert res.worst_ratio == np.inf

    @pytest.mark.parametrize("edge", [(0, 39), (30, 35)])
    def test_potentials_past_the_double_range_fault(self, edge):
        # a 40-state path with ratio 1e10 per step puts the last potentials past 1e308;
        # the edge (0, 39) closes an unbalanced ring, (30, 35) a cycle of two inf products
        rates = np.diag(np.full(39, 1e10), 1) + np.diag(np.ones(39), -1)
        rates[edge] = rates[edge[::-1]] = 1.0
        with pytest.raises(ek.ValidationError, match="double range"):
            ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(rates))

    @pytest.mark.parametrize("case", sorted(KOLMOGOROV_CASES))
    def test_cycle_basis_verdicts(self, case):
        # each verdict holds whatever the cycle length: the test is exact on a cycle basis
        rates, passed, cycle, ratio, basis = KOLMOGOROV_CASES[case]()
        res = ek.kolmogorov_cycle_check(ek.DiscreteChainSpec(rates))
        assert res.passed is passed
        assert res.worst_cycle == cycle
        assert res.worst_ratio == pytest.approx(ratio)
        assert res.cycles_checked == basis


class TestMeasureTransform:
    def test_exponential_is_identity(self):
        for x in (0.1, 1.0, 3.7):
            assert ek.measure_transform(ek.Exponential(2.0), 2.0, x) == pytest.approx(x, rel=1e-12)

    def test_uniform_closed_form_with_reintegration_oracle(self):
        got = ek.measure_transform(ek.UniformDensity(0, 1), 1.0, 0.5)
        assert got == pytest.approx(-np.log(0.5), rel=1e-12)
        # oracle: the defining equality of cumulative masses
        lhs, _ = spint.quad(lambda y: float(ek.UniformDensity(0, 1).pdf(y)), 0, 0.5)
        rhs, _ = spint.quad(lambda y: np.exp(-y), 0, got)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotonicity(self):
        xs = np.linspace(0.05, 0.95, 50)
        u = ek.measure_transform(ek.UniformDensity(0, 1), 1.0, xs)
        assert np.all(np.diff(u) > 0)

    def test_beyond_support_faults(self):
        with pytest.raises(ek.KernelSupportError):
            ek.measure_transform(ek.UniformDensity(0, 1), 1.0, 1.0)

    def test_pushforward_passes_ks(self):
        rng = np.random.default_rng(11)
        rho = ek.GammaDensity(2.0, 1.0)
        draws = rho.sample(rng, size=10_000)
        mapped = ek.measure_transform(rho, 1.5, draws)
        assert ek.ks_distance(mapped, ek.Exponential(1.5).cdf) < 1.36 / np.sqrt(10_000)

    @given(
        x=st.floats(0.01, 30.0),
        nu=st.floats(0.5, 5.0),
        beta=st.floats(0.2, 4.0),
        target_beta=st.floats(0.2, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cumulative_mass_identity_property(self, x, nu, beta, target_beta):
        # the defining property: mass of rho below x equals exponential mass
        # below the image point
        rho = ek.GammaDensity(nu, beta)
        assume(float(rho.cdf(x)) < 1.0)  # float CDF saturates deep in the tail
        u = ek.measure_transform(rho, target_beta, x)
        lhs = float(rho.cdf(x))
        rhs = float(ek.Exponential(target_beta).cdf(u))
        assert rhs == pytest.approx(lhs, abs=1e-12)


class TestKsDistance:
    def test_single_sample_at_median(self):
        assert ek.ks_distance([np.log(2.0)], ek.Exponential(1.0).cdf) == pytest.approx(0.5)

    def test_constant_samples(self):
        d = ek.ks_distance(np.full(100, 0.7), ek.Exponential(1.0).cdf)
        assert d >= 0.49

    def test_empty_faults(self):
        with pytest.raises(ek.ValidationError):
            ek.ks_distance([], ek.Exponential(1.0).cdf)

    def test_rejection_rate_at_five_percent(self):
        # 100 seeded draws from the target: at least 93 must pass the 5% level
        n = 10_000
        crit = 1.36 / np.sqrt(n)
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            draws = rng.exponential(1.0, size=n)
            if ek.ks_distance(draws, ek.Exponential(1.0).cdf) < crit:
                passes += 1
        assert passes >= 93


# ---------------------------------------------------------------------------
# the two pointwise-balance residuals against frozen copies of their first form
# ---------------------------------------------------------------------------


def _shifted_gamma_pdf(nu, beta, shift, us):
    return ek.GammaDensity(nu, beta).pdf(np.asarray(us, dtype=float) - shift)


def _oracle_unary_residual(pi, b, nu, internal, beta, n_check=64):
    """The conversion model's residual as first written: every ordered pair."""
    n = pi.size
    worst = 0.0
    for v in range(n):
        for w in range(n):
            if v == w or (b[v, w] == 0 and b[w, v] == 0):
                continue
            lo = max(internal[v], internal[w])
            us = lo + np.linspace(0.05, 8.0, n_check) / beta
            f_v = _shifted_gamma_pdf(nu[v], beta, internal[v], us)
            f_w = _shifted_gamma_pdf(nu[w], beta, internal[w], us)
            a_vw = np.power(us - internal[w], nu[w] - 1.0) * b[v, w]
            a_wv = np.power(us - internal[v], nu[v] - 1.0) * b[w, v]
            lhs = pi[v] * f_v * a_vw
            rhs = pi[w] * f_w * a_wv
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def _oracle_pair_residual(pi, nu, internal, beta, channels, n_check=64):
    """The pair model's residual as first written: one term per channel."""
    worst = 0.0
    for ch in channels:
        i_fwd = internal[ch.v - 1] + internal[ch.w - 1]
        i_bwd = internal[ch.v_out - 1] + internal[ch.w_out - 1]
        nu_fwd = nu[ch.v - 1] + nu[ch.w - 1]
        nu_bwd = nu[ch.v_out - 1] + nu[ch.w_out - 1]
        lo = max(i_fwd, i_bwd)
        us = lo + np.linspace(0.05, 8.0, n_check) / beta
        f_i = _shifted_gamma_pdf(nu_fwd, beta, i_fwd, us)
        f_j = _shifted_gamma_pdf(nu_bwd, beta, i_bwd, us)
        a_ij = np.power(us - i_bwd, nu_bwd - 1.0) * ch.b_forward
        a_ji = np.power(us - i_fwd, nu_fwd - 1.0) * ch.b_backward
        lhs = pi[ch.v - 1] * pi[ch.w - 1] * f_i * a_ij
        rhs = pi[ch.v_out - 1] * pi[ch.w_out - 1] * f_j * a_ji
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


_PairChannel = namedtuple("_PairChannel", "v w v_out w_out b_forward b_backward")


def _random_pair_network(rng):
    """A two-type network with one pair reaction a <-> b, drawn at random: canonical
    Gamma(1/2) laws at random internal energies, or uniform kernels at equal ones, with
    random constant rates, output weights and elastic outputs.  Returns the network,
    the reaction as the first form's channel (its rates sigma * rate * share), nu and I."""
    uniform = bool(rng.uniform() < 0.5)
    internal = [0.0, 0.0] if uniform else [float(x) for x in rng.choice([0.0, 0.5, 1.25], 2) * rng.uniform(0.0, 2.0, 2)]
    a, b = [((1, 1), (1, 2)), ((1, 1), (2, 2)), ((1, 2), (2, 2))][int(rng.integers(3))]
    outputs = {p: [(*p, float(rng.uniform(0.1, 3.0)))] if rng.uniform() < 0.7 else [] for p in (a, b)}
    for src, dst in ((a, b), (b, a)):
        weight = float(rng.uniform(0.1, 3.0))
        outputs[src].append((*dst, weight))
        if src[0] == src[1] and dst[0] != dst[1]:  # both orders, for exchangeable input slots
            outputs[src].append((dst[1], dst[0], weight))
    rates = {p: float(rng.uniform(0.1, 3.0)) for p in (a, b)}

    def kernel(outs):
        law = ek.GammaDensity(0.5, float(rng.uniform(0.5, 2.0)))
        return ek.UniformKernel(outs) if uniform else ek.CanonicalKernel(outs, {1: law, 2: law})

    net = ek.ReactionNetwork(
        ek.TypeTable(np.array(internal)),
        [ek.BinaryChannel(p, ek.ConstantRate(rates[p]), kernel(outputs[p])) for p in (a, b)],
    )

    def sigma_lambda(src, dst):
        w = np.array([o[2] for o in outputs[src]])
        w = w / w.sum()
        share = float(w[[sorted(o[:2]) == list(dst) for o in outputs[src]]].sum())
        return (0.5 if src[0] == src[1] else 1.0) * rates[src] * share

    channel = _PairChannel(*a, *b, sigma_lambda(a, b), sigma_lambda(b, a))
    return net, channel, np.full(2, 1.0 if uniform else 0.5), np.array(internal)


def _random_type_model(rng, n):
    """Positive p, shapes, offsets and beta, and rates b made reversible for p,
    with about a third of the type pairs left without rates."""
    p = rng.uniform(0.05, 1.0, n)
    b = np.where(rng.uniform(size=(n, n)) < 0.35, 0.0, rng.uniform(0.1, 3.0, (n, n)))
    np.fill_diagonal(b, 0.0)
    for v in range(n):
        for w in range(v + 1, n):
            b[w, v] = p[v] * b[v, w] / p[w]
    nu = rng.choice([0.5, 1.0, 2.0, 3.5], n) * rng.uniform(0.5, 2.0, n)
    internal = rng.choice([0.0, 0.0, 0.5, 1.25], n) * rng.uniform(0.0, 2.0, n)
    return p, b, nu, internal, float(rng.uniform(0.3, 3.0))


class TestBalanceResidualsMatchTheirFirstForm:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), n_check=st.sampled_from([1, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_unary_residual_bits(self, seed, n, n_check):
        rng = np.random.default_rng(seed)
        p, b, nu, internal, beta = _random_type_model(rng, n)
        net = _conversion_network(b, nu, internal, kernels=True)
        pi = rng.uniform(0.01, 1.0, n)  # not the stationary weights
        pi /= pi.sum()
        got = ek.product_form_residual(net, pi, beta, n_check)
        assert got == _oracle_unary_residual(pi, b, nu, internal, beta, n_check)
        assert got > 1e-6 or not b.any()
        pi = np.array(ek.product_form_measure(net, beta, n_check).weights)
        got = ek.product_form_residual(net, pi, beta, n_check)
        assert got == _oracle_unary_residual(pi, b, nu, internal, beta, n_check) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), n_check=st.sampled_from([1, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_pair_residual_bits(self, seed, n_check):
        rng = np.random.default_rng(seed)
        net, channel, nu, internal = _random_pair_network(rng)
        beta = float(rng.uniform(0.3, 3.0))
        pi = rng.uniform(0.01, 1.0, 2)  # not the stationary weights
        got = ek.product_form_residual(net, pi, beta, n_check)
        assert got == _oracle_pair_residual(pi, nu, internal, beta, [channel], n_check)
        pi = np.array(ek.product_form_measure(net, beta, n_check).weights)
        got = ek.product_form_residual(net, pi, beta, n_check)
        assert got == _oracle_pair_residual(pi, nu, internal, beta, [channel], n_check) <= 1e-10
