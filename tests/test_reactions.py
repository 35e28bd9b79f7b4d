import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import enerkin as ek
from conftest import SplitKernel, canonical_split, feasible_outputs
from enerkin.reactions import _QUAD_NODES, _QUAD_WEIGHTS


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
        assert r(1.0) == 3.0  # open at the threshold itself
        assert r(np.array([0.5, 1.0, 1.5])).tolist() == [0.0, 3.0, 3.0]


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

    def test_split_is_the_draw_of_rng_uniform(self):
        # e * random() is the double rng.uniform(0.0, e) returns; e = 0 draws nothing
        energies = np.random.default_rng(4).exponential(2.0, size=20_000)
        energies[::400] = 0.0
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = [self.kernel.split_sample(self.out, float(e), rng) for e in energies]
        want = [float(ref.uniform(0.0, e)) if e > 0.0 else 0.0 for e in energies]
        assert got == want
        assert rng.random() == ref.random()

    def test_ks_against_uniform(self):
        rng = np.random.default_rng(2)
        s = 2.0
        draws = np.array([self.kernel.split_sample(self.out, 0.7 + 1.3, rng) for _ in range(10_000)])
        d = ek.ks_distance(draws, lambda x: np.clip(x / s, 0, 1))
        assert d < 1.36 / np.sqrt(10_000)


class TestCanonicalSplit:
    """``CanonicalKernel.split_sample`` and ``split_pdf`` on the one output (1, 2)."""

    def test_exponential_pair_is_uniform(self):
        rng = np.random.default_rng(3)
        t = 2.0
        kernel, out = canonical_split(ek.Exponential(0.7), ek.Exponential(0.7))
        draws = np.array([kernel.split_sample(out, t, rng) for _ in range(10_000)])
        d = ek.ks_distance(draws, lambda x: np.clip(x / t, 0, 1))
        assert d < 1.36 / np.sqrt(10_000)

    def test_gamma_pair_scales_like_beta(self):
        # oracle: rejection sampling from the joint split density
        nu1, nu2, t = 2.0, 3.0, 1.5
        fam1, fam2 = ek.GammaDensity(nu1, 1.0), ek.GammaDensity(nu2, 1.0)
        kernel, out = canonical_split(fam1, fam2)
        rng = np.random.default_rng(4)
        draws = np.array([kernel.split_sample(out, t, rng) for _ in range(20_000)])
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
        kernel, out = canonical_split(fam1, fam2)
        t = 2.0
        rng = np.random.default_rng(5)
        draws = np.array([kernel.split_sample(out, t, rng) for _ in range(5_000)])
        xs = np.linspace(0, t, 4001)
        pdf = fam1.pdf(xs) * fam2.pdf(t - xs)
        cdf_tab = np.cumsum(pdf)
        cdf_tab /= cdf_tab[-1]
        d = ek.ks_distance(draws, lambda q: np.interp(q, xs, cdf_tab))
        assert d < 1.5 * 1.36 / np.sqrt(5_000)

    def test_empty_support_faults(self):
        rng = np.random.default_rng(6)
        shifted = ek.Shifted(ek.Exponential(1.0), 2.0)  # support [2, inf)
        kernel, out = canonical_split(shifted, ek.Exponential(1.0))
        with pytest.raises(ek.KernelSupportError):
            kernel.split_sample(out, 1.0, rng)
        with pytest.raises(ek.KernelSupportError):
            kernel.split_pdf(out, 1.0, 0.5)

    @pytest.mark.parametrize("rho_b", [ek.Exponential(1.0), ek.UniformDensity(0.0, 3.0)], ids=["beta", "table"])
    def test_negative_energy_is_refused(self, rho_b):
        kernel, out = canonical_split(ek.Exponential(1.0), rho_b)
        with pytest.raises(ek.ValidationError, match="must be >= 0"):
            kernel.split_sample(out, -0.5, np.random.default_rng(7))

    def test_run_resolves_no_gamma_shape(self, two_type_canonical_network, monkeypatch):
        # each output's split law is resolved when its kernel is built, not per event
        calls = []
        for cls in (ek.DensityFamily, ek.Exponential, ek.GammaDensity, ek.Shifted):
            shape = cls.__dict__["gamma_shape"]
            monkeypatch.setattr(cls, "gamma_shape", lambda self, f=shape: calls.append(self) or f(self))
        initial = ek.TypeCountsInitial(counts=(50, 50), energies=(ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0)))
        config = ek.SimulatorConfig(two_type_canonical_network, initial, t_end=1e9, seed=1, max_events=2000)
        traj = ek.run(config)
        assert traj.events_applied == 2000
        assert calls == []


SUPPORT_DENSITIES = {
    "exponential": ek.Exponential(1.0),
    "gamma": ek.GammaDensity(2.5, 1.0),
    "shifted_gamma_0": ek.ShiftedGamma(2.0, 1.0, shift=0.0),
    "shifted_gamma_1": ek.ShiftedGamma(2.0, 1.0, shift=1.0),
    "uniform_0_3": ek.UniformDensity(0.0, 3.0),
    "uniform_1_4": ek.UniformDensity(1.0, 4.0),
}


@pytest.mark.parametrize("release", [-1.0, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("a, b", list(itertools.combinations_with_replacement(SUPPORT_DENSITIES, 2)))
def test_support_rule_refuses_exactly_the_splits_without_mass(a, b, release):
    """A network refuses a canonical output exactly when its split normalizer is 0
    somewhere on a grid of step 0.1 over the available energies (max(release, 0), 60]:
    there ``split_pdf``, which divides by the normalizer, refuses the grid."""
    rho_a, rho_b = SUPPORT_DENSITIES[a], SUPPORT_DENSITIES[b]
    # (1, 2) -> (3, 4) releases I_1 - I_3
    types = ek.TypeTable(np.array([max(release, 0.0), 0.0, max(-release, 0.0), 0.0]))
    kernel = ek.CanonicalKernel([(3, 4, 1.0)], {3: rho_a, 4: rho_b})
    floor = max(release, 0.0)
    try:
        kernel.split_pdf(kernel.outputs[0], np.linspace(floor, 60.0, 601)[1:], 0.0)
        massless = False
    except ek.KernelSupportError:
        massless = True
    try:
        ek.ReactionNetwork(types, [ek.BinaryChannel((1, 2), ek.ConstantRate(1.0), kernel)])
        refused = False
    except ek.KernelSupportError as exc:
        assert exc.field == "binary[0].kernel"
        refused = True
    assert refused == massless


def test_check_integrates_a_split_with_a_jump_over_its_support():
    # Uniform(0, 3) x Exp(1) jumps at x = 3: inside (0, e) for e > 3, at the end of the
    # support [0, min(3, e)].  Over [0, e] the tanh-sinh rule read 0.811 at e = 8.
    tt = ek.TypeTable(np.zeros(2))
    kernel = ek.CanonicalKernel([(1, 2, 1.0)], {1: ek.UniformDensity(0.0, 3.0), 2: ek.Exponential(1.0)})
    for e in np.linspace(1.0, 12.7, 118):
        assert abs(kernel.check_normalization(1, float(e), 2, 0.0, tt) - 1.0) < 1e-7


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
        idx, w, _ = feasible_outputs(k, 1, 0.5, 1, 0.5, tt)
        assert idx == [0] and w.tolist() == [1.0]
        idx, w, _ = feasible_outputs(k, 1, 4.0, 1, 4.0, tt)
        assert idx == [0, 1] and np.allclose(w, [0.25, 0.75])

    @pytest.mark.parametrize("weights", [(0.3, 1.7), (0.3, 1.7, 0.9)], ids=["two", "three"])
    def test_pick_is_the_draw_of_rng_choice(self, weights):
        # the feasible outputs carry unequal weights; a type-3 output never is feasible
        tt = ek.TypeTable(np.array([0.0, 0.4, 100.0]))
        pairs = [(1, 1), (1, 2), (2, 2)][: len(weights)]
        k = ek.UniformKernel([(a, b, w) for (a, b), w in zip(pairs, weights)] + [(3, 3, 5.0)])
        energies = 0.5 + np.random.default_rng(4).exponential(1.0, size=(10_000, 2))
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for t, tp in energies.tolist():
            got = k.sample_outcome(1, t, 1, tp, tt, rng)
            idx, w, avail = feasible_outputs(k, 1, t, 1, tp, tt)
            assert len(idx) == len(weights)
            pick = int(ref.choice(len(idx), p=w))
            out, e = k.outputs[idx[pick]], avail[pick]
            u = float(ref.uniform(0.0, e))
            assert got == (out.first, u, out.second, e - u)
        assert rng.random() == ref.random()

    def test_no_feasible_output_returns_none(self):
        tt = ek.TypeTable(np.array([0.0, 10.0]))
        k = ek.UniformKernel([(2, 2, 1.0)])
        rng = np.random.default_rng(0)
        assert k.sample_outcome(1, 1.0, 1, 1.0, tt, rng) is None
        assert k._outcome_table(1, 1, tt).size(2.0) == 0

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


def _bits(x):
    return np.asarray(x, dtype=float).reshape(-1).view(np.uint64).tolist()


class TestScalarRates:
    """The engine evaluates rates on Python floats; the values must be the array ones, bit for bit."""

    INTERNAL = np.array([0.0, 0.6, 1.5])
    UNARY_FORMS = {
        "constant": lambda thr: ek.ConstantUnaryRate(1.3),
        "power_0": lambda thr: ek.PowerGapRate(0.7, 0.0, thr),
        "power_1": lambda thr: ek.PowerGapRate(0.7, 1.0, thr),
        "power_half": lambda thr: ek.PowerGapRate(0.7, 0.5, thr),
        "power_negative": lambda thr: ek.PowerGapRate(0.7, -0.5, thr),
        "callable_0d": lambda thr: ek.CallableUnaryRate(lambda u: np.asarray(0.25 + np.sqrt(u))),
        "callable_size1": lambda thr: ek.CallableUnaryRate(lambda u: np.reshape(0.25 + np.sqrt(u), -1)),
    }

    def _unary_network(self, form):
        tt = ek.TypeTable(self.INTERNAL)
        make = self.UNARY_FORMS[form]
        pairs = [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1)]
        return ek.ReactionNetwork(
            tt, unary=[ek.UnaryChannel(v, w, make(float(self.INTERNAL[w - 1]))) for v, w in pairs]
        )

    def _energies(self, v):
        # every gate boundary t + I_v - I_w == 0 of the source type, its neighbours, and a spread
        ts = [0.0, 0.3, 1.0, 2.2, 7.3]
        for w in (1, 2, 3):
            boundary = -(self.INTERNAL[v - 1] - self.INTERNAL[w - 1])
            if boundary >= 0.0:
                assert boundary + (self.INTERNAL[v - 1] - self.INTERNAL[w - 1]) == 0.0
                ts += [boundary, np.nextafter(boundary, np.inf)]
                if boundary > 0.0:
                    ts.append(np.nextafter(boundary, -np.inf))
        return [float(t) for t in ts]

    @pytest.mark.parametrize("form", sorted(UNARY_FORMS))
    def test_unary_rates_on_a_float_match_arrays_bitwise(self, form):
        net = self._unary_network(form)
        for v in (1, 2, 3):
            ts = self._energies(v)
            array_rates = net.unary_rates(v, np.array(ts))
            array_total = net.unary_rate(v, np.array(ts))
            for k, t in enumerate(ts):
                rates = net.unary_rates(v, t)
                total = net.unary_rate(v, t)
                assert type(total) is float and all(type(r) is float for r in rates)
                zero_d = net.unary_rates(v, np.asarray(t))
                assert _bits(rates) == [_bits(r)[0] for r in zero_d]
                assert _bits(total) == _bits(net.unary_rate(v, np.asarray(t)))
                if form != "callable_size1":  # a size-1 result does not broadcast over energies
                    assert _bits(rates) == [_bits(r)[k] for r in array_rates]
                    assert _bits(total) == [_bits(array_total)[k]]

    def test_gate_closes_below_the_boundary(self):
        net = self._unary_network("power_0")
        below = float(np.nextafter(0.6, -np.inf))
        assert net.unary_rates(1, below) == [0.0, 0.0]
        assert net.unary_rates(1, 0.6) == [0.7, 0.0]
        assert net.unary_rate(1, 0.6) == 0.7

    @pytest.mark.parametrize(
        "rate",
        [
            ek.ConstantRate(0.8),
            ek.SumDecayRate(1.3, 0.45),
            ek.CallableRate(lambda t, tp: 0.5 + np.exp(-0.3 * np.add(t, tp)) * np.multiply(t, tp), bound=4.0),
        ],
        ids=["constant", "sum_decay", "callable"],
    )
    def test_pair_rate_on_floats_matches_arrays_bitwise(self, rate):
        tt = ek.TypeTable(np.array([0.0, 0.5]))
        kernel = ek.UniformKernel([(1, 2, 1.0)])
        net = ek.ReactionNetwork(tt, [ek.BinaryChannel((1, 2), rate, kernel)])
        rng = np.random.default_rng(4)
        ts, tps = rng.exponential(1.0, 40), rng.exponential(2.0, 40)
        ts[:2], tps[:2] = 0.0, [0.0, 3.0]
        # subnormal energies, and a sum at which exp(-0.45 * sum) underflows to 0
        ts, tps = np.append(ts, [5e-324, 1.0, 2000.0]), np.append(tps, [0.5, 5e-324, 1500.0])
        for v, w in ((1, 2), (2, 1)):
            arrays = _bits(net.pair_rate(v, ts, w, tps))
            floats = [_bits(net.pair_rate(v, float(t), w, float(tp)))[0] for t, tp in zip(ts, tps)]
            assert floats == arrays


def test_one_output_release_follows_the_type_table():
    # the cached release belongs to the type table it was computed with
    k = ek.UniformKernel([(2, 2, 1.0)])
    low, high = ek.TypeTable(np.array([0.0, 0.5])), ek.TypeTable(np.array([0.0, 2.0]))
    rng = np.random.default_rng(1)
    for tt, e in ((low, 1.0), (high, None), (low, 1.0)):
        out = k.sample_outcome(1, 1.0, 1, 1.0, tt, rng)
        if e is None:
            assert out is None
        else:
            assert out[0] == out[2] == 2 and out[1] + out[3] == pytest.approx(e, rel=1e-15)


def _brute_force_outcomes(kernel, v, kinetic, v_other, types):
    """(indices, renormalized weights, available energies) of the feasible outputs, each
    output's available energy taken from ``available_kinetic_energy`` on its own."""
    avail = [
        ek.available_kinetic_energy(kinetic, (v, v_other), (o.first, o.second), types)
        for o in kernel.outputs
    ]
    idx = [k for k, e in enumerate(avail) if e >= 0.0]
    w = np.array([kernel.outputs[k].weight for k in idx])
    return idx, w / w.sum() if idx else w, [avail[k] for k in idx]


@st.composite
def _kernel_inputs(draw):
    """A type table, a uniform kernel with 1-9 outputs, an ordered input pair and kinetic
    energies: random ones and ones exactly at, just below and just above a threshold."""
    n_types = draw(st.integers(1, 4))
    # few distinct levels, so that releases tie
    levels = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.5]) | st.floats(0.0, 3.0)
    types = ek.TypeTable(np.array(draw(st.lists(levels, min_size=n_types, max_size=n_types))))
    pairs = [(a, b) for a in range(1, n_types + 1) for b in range(1, n_types + 1)]
    outs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(outs), max_size=len(outs)))
    kernel = ek.UniformKernel([(a, b, w) for (a, b), w in zip(outs, weights)])
    v, v_other = draw(st.sampled_from(pairs))
    kinetic = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=5))
    for a, b in outs:
        threshold = -ek.available_kinetic_energy(0.0, (v, v_other), (a, b), types)
        if threshold >= 0.0:
            kinetic += [threshold, np.nextafter(threshold, -1.0), np.nextafter(threshold, np.inf)]
    return types, kernel, v, v_other, [float(x) for x in kinetic if x >= 0.0]


@given(_kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_outcome_table_matches_brute_force(case):
    types, kernel, v, v_other, kinetic = case
    table = kernel._outcome_table(v, v_other, types)
    sizes = table.sizes(np.array(kinetic)).tolist()
    for x, size in zip(kinetic, sizes):
        idx, w, avail = _brute_force_outcomes(kernel, v, x, v_other, types)
        # the scalar lookup, split as (x, 0.0) and as (0.0, x)
        for t, t_other in ((x, 0.0), (0.0, x)):
            got_idx, got_w, got_avail = feasible_outputs(kernel, v, t, v_other, t_other, types)
            assert got_idx == idx
            assert got_w.tolist() == w.tolist()
            assert got_avail == avail
            assert (table.size(t + t_other) > 0) == bool(idx)
        # the array lookup: one weight per output, 0 where it is infeasible
        assert size == len(idx)
        row = np.zeros(len(kernel.outputs))
        row[idx] = w
        assert table.weights[size].tolist() == row.tolist()
        assert [x + table.releases[k] for k in idx] == avail


_RELEASE = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5])
    | st.floats(-4.0, 4.0)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@given(st.lists(_RELEASE, min_size=1, max_size=9))
@settings(max_examples=300, deadline=None)
def test_all_feasible_threshold_agrees_with_the_feasible_count(releases):
    # sample_outcome takes every output as feasible at kinetic >= all_feasible_from
    # = -min(releases) without counting; at each release's threshold, its neighbours,
    # zero and subnormals the count must be all outputs exactly there
    from enerkin.reactions import _OutcomeTable

    table = _OutcomeTable([ek.OutputPair(1, 1)] * len(releases), releases)
    kinetic = [0.0, -0.0, 5e-324, 1e-310, math.nextafter(2.2250738585072014e-308, 0.0)]
    for r in releases:
        kinetic += [-r, math.nextafter(-r, -math.inf), math.nextafter(-r, math.inf)]
    for x in kinetic:
        assert (table.size(x) == len(releases)) == (x >= table.all_feasible_from), x


def _per_pair_errors(network, n_samples, rng, scale=1.0):
    """kernel_normalization_errors one input pair at a time: two scalar draws, the
    quadrature over each split's support (from the densities' supports for a canonical
    kernel, [0, e] otherwise) summed output by output over the outcome table's feasible
    outputs, then its error against 1 where an output is feasible and 0 where none is."""
    errors = {}
    for ch in network.binary:
        (v, w), k = ch.pair, ch.kernel
        worst = 0.0
        for _ in range(n_samples):
            t, tp = (float(x) for x in rng.exponential(scale, size=2))
            idx, weights, avail = feasible_outputs(k, v, t, w, tp, network.types)
            total = 0.0
            for i, wk, e in zip(idx, weights, avail):
                if e == 0.0:
                    total += wk  # the split is a point mass at 0
                    continue
                lo, hi = 0.0, e
                if isinstance(k, ek.CanonicalKernel):
                    (lo_a, hi_a), (lo_b, hi_b) = (
                        k.densities[t_id].support() for t_id in (k.outputs[i].first, k.outputs[i].second)
                    )
                    lo, hi = max(lo_a, e - hi_b), min(hi_a, e - lo_b)
                nodes = lo + (hi - lo) * _QUAD_NODES[None]
                pdf = k.split_pdf(k.outputs[i], np.array([[e]]), nodes)[0]
                total += wk * (hi - lo) * float(np.sum(pdf * _QUAD_WEIGHTS))
            assert k.check_normalization(v, t, w, tp, network.types) == total
            mass = 1.0 if k._outcome_table(v, w, network.types).size(t + tp) > 0 else 0.0
            worst = max(worst, abs(total - mass))
        errors[ch.pair] = worst
    return errors


def _uniform_gap_network():
    # (1,1) -> (2,2) is infeasible below kinetic energy 1.4; the (1,2) channel has
    # all nine ordered outputs, more weights than numpy sums left to right
    tt = ek.TypeTable(np.array([0.0, 0.7, 1.5]))
    rate = ek.ConstantRate(1.0)
    nine = [(a, b, 0.3 + 0.2 * ((5 * a + 3 * b) % 7)) for a in (1, 2, 3) for b in (1, 2, 3)]
    return ek.ReactionNetwork(tt, [
        ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0), (2, 2, 3.0)])),
        ek.BinaryChannel((1, 2), rate, ek.UniformKernel(nine)),
        ek.BinaryChannel((3, 3), rate, ek.UniformKernel([(3, 3, 1.0), (1, 1, 0.5)])),
    ])


def _canonical_network(densities):
    pair = (1, len(densities))
    tt = ek.TypeTable(np.zeros(len(densities)))
    kernel = ek.CanonicalKernel([(*pair, 1.0)], dict(enumerate(densities, start=1)))
    return ek.ReactionNetwork(tt, [ek.BinaryChannel(pair, ek.ConstantRate(1.0), kernel)])


def _short_split_network():
    # the (1, 1) split density integrates to 0.6 and the (2, 2) one to 1; (2, 2) is
    # infeasible below kinetic energy 1.4, so the total is 0.6 there and 0.9 above
    kernel = SplitKernel(
        [(1, 1, 1.0), (2, 2, 3.0)],
        split_pdf_fn=lambda a, b, e, u: np.where((u >= 0) & (u <= e), (0.6 if a == 1 else 1.0) / e, 0.0),
        split_sample_fn=lambda a, b, e, rng: rng.uniform(0, e),
    )
    tt = ek.TypeTable(np.array([0.0, 0.7]))
    return ek.ReactionNetwork(tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), kernel)])


ORACLE_NETWORKS = {
    "uniform_gap": _uniform_gap_network,
    # Gamma(1/2) splits as Beta(1/2, 1/2): the tanh-sinh rule meets its endpoint singularities
    "gamma_half": lambda: _canonical_network([ek.GammaDensity(0.5, 1.0)]),
    # no common gamma rate: the split normalizer is the midpoint quadrature
    "uniform_exponential": lambda: _canonical_network(
        [ek.UniformDensity(0.0, 3.0), ek.Exponential(1.0)]
    ),
    "short_split": _short_split_network,
}


class TestBatchedNormalizationCheck:
    """kernel_normalization_errors takes each channel's draws as one array; its
    worst errors equal those of the check made one input pair at a time."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("name", ["conftest_canonical", *ORACLE_NETWORKS])
    def test_equals_per_pair_check(self, name, seed, request):
        if name == "conftest_canonical":
            net = request.getfixturevalue("two_type_canonical_network")
        else:
            net = ORACLE_NETWORKS[name]()
        batched = net.kernel_normalization_errors(37, np.random.default_rng(seed))
        assert batched == _per_pair_errors(net, 37, np.random.default_rng(seed))

    def test_inputs_at_rest_take_the_point_mass(self):
        # at energy scale 0 every kinetic energy is 0: a gap-free output splits no
        # energy (a point mass at 0) while (3,3) -> (1,1) releases 3.0 to split
        net = _uniform_gap_network()
        batched = net.kernel_normalization_errors(37, np.random.default_rng(2), scale=0.0)
        assert batched == _per_pair_errors(net, 37, np.random.default_rng(2), scale=0.0)
        assert batched[(3, 3)] < 1e-12
