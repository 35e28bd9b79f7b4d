import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import enerkin as ek


class TestRates:
    def test_constant_rate_broadcast(self):
        r = ek.ConstantRate(2.0)
        assert r(0.1, 0.2) == 2.0
        assert np.all(r(np.zeros(5), 1.0) == 2.0)
        assert r.of_sum(np.array([1.0, 2.0])).tolist() == [2.0, 2.0]

    def test_sum_decay_rate(self):
        r = ek.SumDecayRate(3.0, 0.5)
        assert r(1.0, 1.0) == pytest.approx(3.0 * np.exp(-1.0))
        assert r(1.0, 1.0) == r(2.0, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ek.ValidationError):
            ek.ConstantRate(-1.0)

    def test_power_gap_rate_vanishes_below_threshold(self):
        r = ek.PowerGapRate(2.0, 1.5, 1.0)
        assert r(0.5) == 0.0
        assert r(1.0) == 0.0
        assert r(2.0) == pytest.approx(2.0)
        vals = r(np.array([0.0, 1.0, 3.0]))
        assert vals.tolist() == [0.0, 0.0, pytest.approx(2.0 * 2.0**1.5)]

    def test_power_gap_zero_exponent_is_gated_constant(self):
        r = ek.PowerGapRate(3.0, 0.0, 1.0)
        assert r(0.5) == 0.0
        assert r(1.5) == 3.0


class TestUniformSplit:
    kernel = ek.UniformKernel([(1, 1, 1.0)])
    out = kernel.outputs[0]

    def test_degenerate_interval(self):
        rng = np.random.default_rng(0)
        assert self.kernel.split_sample(self.out, 0.0, rng) == 0.0

    def test_mean_of_uniform(self):
        rng = np.random.default_rng(1)
        draws = np.array([self.kernel.split_sample(self.out, 0.5 + 1.5, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_ks_against_uniform(self):
        rng = np.random.default_rng(2)
        s = 2.0
        draws = np.array([self.kernel.split_sample(self.out, 0.7 + 1.3, rng) for _ in range(10_000)])
        d = ek.ks_distance(draws, lambda x: np.clip(x / s, 0, 1))
        assert d < 1.36 / np.sqrt(10_000)


class TestCanonicalSplit:
    def test_exponential_pair_is_uniform(self):
        rng = np.random.default_rng(3)
        t = 2.0
        draws = np.array(
            [ek.sample_canonical_split(ek.Exponential(0.7), ek.Exponential(0.7), t, rng) for _ in range(10_000)]
        )
        d = ek.ks_distance(draws, lambda x: np.clip(x / t, 0, 1))
        assert d < 1.36 / np.sqrt(10_000)

    def test_gamma_pair_scales_like_beta(self):
        # oracle: rejection sampling from the joint split density
        nu1, nu2, t = 2.0, 3.0, 1.5
        fam1, fam2 = ek.GammaDensity(nu1, 1.0), ek.GammaDensity(nu2, 1.0)
        rng = np.random.default_rng(4)
        draws = np.array([ek.sample_canonical_split(fam1, fam2, t, rng) for _ in range(20_000)])
        dens = lambda x: fam1.pdf(x) * fam2.pdf(t - x)
        xs = np.linspace(0, t, 2001)
        peak = dens(xs).max()
        oracle = []
        while len(oracle) < 20_000:
            x = rng.uniform(0, t, size=4096)
            keep = rng.uniform(0, peak, size=4096) < dens(x)
            oracle.extend(x[keep].tolist())
        oracle = np.array(oracle[:20_000])
        assert abs(draws.mean() - oracle.mean()) < 4 * oracle.std() / np.sqrt(20_000) + 4 * draws.std() / np.sqrt(20_000)
        assert abs(draws.std() - oracle.std()) < 0.02
        # closed form: x/t ~ Beta(nu1, nu2)
        d = ek.ks_distance(draws / t, stats.beta(nu1, nu2).cdf)
        assert d < 1.36 / np.sqrt(20_000)

    def test_mixed_beta_fallback_matches_quadrature_cdf(self):
        # different rate parameters force the tabulated inverse-CDF path
        fam1, fam2 = ek.GammaDensity(2.0, 1.0), ek.Exponential(3.0)
        t = 2.0
        rng = np.random.default_rng(5)
        draws = np.array([ek.sample_canonical_split(fam1, fam2, t, rng) for _ in range(5_000)])
        xs = np.linspace(0, t, 4001)
        pdf = fam1.pdf(xs) * fam2.pdf(t - xs)
        cdf_tab = np.cumsum(pdf)
        cdf_tab /= cdf_tab[-1]
        d = ek.ks_distance(draws, lambda q: np.interp(q, xs, cdf_tab))
        assert d < 1.5 * 1.36 / np.sqrt(5_000)

    def test_empty_support_faults(self):
        rng = np.random.default_rng(6)
        shifted = ek.Shifted(ek.Exponential(1.0), 2.0)  # support [2, inf)
        with pytest.raises(ek.KernelSupportError):
            ek.sample_canonical_split(shifted, ek.Exponential(1.0), 1.0, rng)
        with pytest.raises(ek.KernelSupportError):
            ek.canonical_split_pdf(shifted, ek.Exponential(1.0), 1.0, 0.5)


class TestScatteringKernel:
    def test_outcome_density_zero_when_infeasible(self):
        tt = ek.TypeTable(np.array([0.0, 5.0]))
        k = ek.UniformKernel([(2, 2, 1.0)])
        assert k.outcome_density(1, 1.0, 1, 1.0, 2, 0.5, 2, tt) == 0.0

    def test_normalization_uniform(self, one_type_table):
        k = ek.UniformKernel([(1, 1, 1.0)])
        total = k.check_normalization(1, 0.7, 1, 1.1, one_type_table)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization_canonical(self):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        k = ek.CanonicalKernel(
            [(1, 2, 1.0)], {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}
        )
        total = k.check_normalization(1, 0.5, 2, 0.8, tt)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization_across_feasible_subset(self):
        # two outputs, one infeasible at low energies: weights renormalize
        tt = ek.TypeTable(np.array([0.0, 3.0]))
        k = ek.UniformKernel([(1, 1, 1.0), (2, 2, 3.0)])
        lo = k.check_normalization(1, 0.5, 1, 0.5, tt)
        hi = k.check_normalization(1, 4.0, 1, 4.0, tt)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        idx, w, _ = k.feasible_outputs(1, 0.5, 1, 0.5, tt)
        assert idx == [0] and w.tolist() == [1.0]
        idx, w, _ = k.feasible_outputs(1, 4.0, 1, 4.0, tt)
        assert idx == [0, 1] and np.allclose(w, [0.25, 0.75])

    def test_no_feasible_output_returns_none(self):
        tt = ek.TypeTable(np.array([0.0, 10.0]))
        k = ek.UniformKernel([(2, 2, 1.0)])
        rng = np.random.default_rng(0)
        assert k.sample_outcome(1, 1.0, 1, 1.0, tt, rng) is None
        assert k.outcome_mass(1, 1.0, 1, 1.0, tt) == 0.0

    def test_sampled_outcomes_conserve_energy(self):
        tt = ek.TypeTable(np.array([0.0, 0.5]))
        k = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0), (1, 1, 0.5), (2, 2, 0.5)])
        rng = np.random.default_rng(8)
        for _ in range(500):
            t, tp = rng.exponential(1.0, size=2)
            out = k.sample_outcome(1, t, 2, tp, tt, rng)
            v1, u, v1p, u2 = out
            before = 0.0 + t + 0.5 + tp
            after = tt.internal_energies[v1 - 1] + u + tt.internal_energies[v1p - 1] + u2
            assert after == pytest.approx(before, rel=1e-12)
            assert u >= 0 and u2 >= 0

    @given(
        t=st.floats(0.0, 50.0),
        tp=st.floats(0.0, 50.0),
        gap=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_outcome_energy_balance_property(self, t, tp, gap, seed):
        tt = ek.TypeTable(np.array([0.0, gap]))
        k = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0), (1, 1, 0.5), (2, 2, 0.5)])
        rng = np.random.default_rng(seed)
        out = k.sample_outcome(1, t, 2, tp, tt, rng)
        v1, u, v1p, u2 = out
        before = t + gap + tp
        after = tt.internal_energies[v1 - 1] + u + tt.internal_energies[v1p - 1] + u2
        assert u >= 0.0 and u2 >= 0.0
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_table_kernel_subnormalized_mass(self, one_type_table):
        k = ek.TableKernel(
            [(1, 1, 1.0)],
            split_pdf_fn=lambda a, b, e, u: np.where((u >= 0) & (u <= e), 1.0 / e, 0.0),
            split_sample_fn=lambda a, b, e, rng: rng.uniform(0, e),
            mass_fn=lambda v, t, vp, tp: 0.5,
        )
        assert k.outcome_mass(1, 1.0, 1, 1.0, one_type_table) == 0.5


class TestReactionNetwork:
    def test_duplicate_pair_rejected(self, one_type_table):
        ch = ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))
        with pytest.raises(ek.ValidationError):
            ek.ReactionNetwork(one_type_table, [ch, ch])

    def test_same_type_reactants_need_exchangeable_weights(self):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        bad = ek.UniformKernel([(1, 2, 1.0), (2, 1, 2.0)])
        with pytest.raises(ek.ValidationError, match="equal weights"):
            ek.ReactionNetwork(
                tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), bad)]
            )
        good = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])
        ek.ReactionNetwork(tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), good)])

    def test_pair_rate_uses_slot_convention(self):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        rate = ek.CallableRate(lambda t, tp: 1.0 + 0.0 * np.asarray(t) + 2.0 * np.asarray(tp))
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 2), rate, ek.UniformKernel([(1, 2, 1.0)]))]
        )
        # alpha_{12}(x, y) == alpha_{21}(y, x): same physical pair, same value
        assert float(net.pair_rate(1, 0.5, 2, 1.0)) == float(net.pair_rate(2, 1.0, 1, 0.5))

    def test_asymmetric_same_type_rate_detected(self, one_type_table):
        rate = ek.CallableRate(lambda t, tp: 1.0 + np.asarray(t) - np.asarray(tp))
        net = ek.ReactionNetwork(
            one_type_table,
            [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))],
        )
        with pytest.raises(ek.ValidationError, match="symmetric"):
            net.validate_rate_symmetry()

    def test_outcome_density_slot_exchange_invariance(self):
        tt = ek.TypeTable(np.array([0.0, 0.2]))
        dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}
        net = ek.ReactionNetwork(
            tt,
            [
                ek.BinaryChannel(
                    (1, 2), ek.ConstantRate(1.0), ek.CanonicalKernel([(1, 2, 1.0)], dens)
                )
            ],
        )
        t1, t2 = 0.8, 1.4
        e = t1 + t2
        for u in (0.1, 0.5, 1.7):
            direct = float(net.outcome_density(1, t1, 2, t2, 1, u, 2))
            swapped = float(net.outcome_density(2, t2, 1, t1, 2, e - u, 1))
            assert direct == pytest.approx(swapped, rel=1e-12)

    def test_unary_rate_gated_by_feasibility(self, unary_two_type_network):
        net = unary_two_type_network
        # type 1 below the gap cannot convert up
        assert float(net.unary_rate(1, 0.5)) == 0.0
        assert float(net.unary_rate(1, 1.5)) == 1.0
        # downhill always allowed
        assert float(net.unary_rate(2, 0.0)) == 1.0
