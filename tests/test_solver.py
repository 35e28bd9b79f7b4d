from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as spint

import enerkin as ek
from conftest import SplitKernel, uniform_net
from enerkin import solver

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ONE_TYPE = uniform_net()  # the one-type equation at unit rate


def exp_grid(beta=1.0, x_max=40.0, n=4000, cell_average=True):
    if cell_average:
        return ek.DensityGrid.from_families([ek.Exponential(beta)], x_max, n)
    g = ek.DensityGrid(x_max, np.zeros((1, n)))
    g.values[0] = ek.Exponential(beta).pdf(g.centers)
    return g


def gain_one_type(grid):
    """Gain of the one-type equation at unit rate, read from its collision plan."""
    return ek.CollisionPlan(uniform_net(), grid.n_cells, grid.x_max).gain(grid.values)[0]


def gap_network(ie=(0.0, 0.5), low_rate=None):
    """Two types with an internal-energy gap; like pairs may change type together.

    With ``low_rate`` the (1, 1) channel can only go up the gap, at that rate.
    """
    tt = ek.TypeTable(np.array(ie))

    def ch(pair, outs, rate=ek.ConstantRate(1.0)):
        return ek.BinaryChannel(pair, rate, ek.UniformKernel(outs))

    if low_rate is None:
        low = ch((1, 1), [(1, 1, 1.0), (2, 2, 1.0)])
    else:
        low = ch((1, 1), [(2, 2, 1.0)], low_rate)
    return ek.ReactionNetwork(
        tt, [low, ch((1, 2), [(1, 2, 1.0)]), ch((2, 2), [(2, 2, 1.0), (1, 1, 1.0)])]
    )


def canonical_gap_network():
    """Canonical Gamma(2,1)/Exp(1) splits across an internal-energy gap."""
    tt = ek.TypeTable(np.array([0.0, 0.3]))
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}

    def ch(pair, outs):
        return ek.BinaryChannel(pair, ek.SumDecayRate(1.0, 0.2), ek.CanonicalKernel(outs, dens))

    return ek.ReactionNetwork(
        tt,
        [
            ch((1, 1), [(1, 1, 1.0), (2, 2, 0.5)]),
            ch((1, 2), [(1, 2, 1.0)]),
            ch((2, 2), [(1, 1, 1.0)]),
        ],
    )


def table_kernel():
    """A uniform split given as callables."""
    return SplitKernel(
        [(1, 2, 1.0)],
        split_pdf_fn=lambda a, b, e, u: np.where((u >= 0) & (u <= e), 1.0 / max(e, 1e-300), 0.0),
        split_sample_fn=lambda a, b, e, rng: rng.uniform(0, e),
    )


def canonical_channel(rho_1, rho_2):
    return ek.BinaryChannel(
        (1, 2), ek.ConstantRate(1.0), ek.CanonicalKernel([(1, 2, 1.0)], {1: rho_1, 2: rho_2})
    )


def reference_rhs(grid, network):
    """The collision plan's formulas with dense tables and direct convolutions."""
    vals, n, h, x = grid.values, grid.n_cells, grid.h, grid.centers
    ie = network.types.internal_energies
    sigma = np.arange(1.0, 2.0 * n) * h  # s_m = (m+1) h
    out = np.zeros_like(vals)
    for ch in network.binary:
        v, w = ch.pair
        outs = ch.kernel.outputs
        alpha_s = ch.rate.of_sum(sigma) * np.ones_like(sigma)
        delta = np.array([ie[v - 1] + ie[w - 1] - ie[o.first - 1] - ie[o.second - 1] for o in outs])
        w_eff = (sigma[:, None] + delta[None, :] >= 0) * np.array([o.weight for o in outs])
        norm = w_eff.sum(axis=1)
        w_eff = w_eff / np.where(norm > 0, norm, 1.0)[:, None]
        flux = alpha_s * np.convolve(vals[v - 1], vals[w - 1]) * h * h
        gated = alpha_s * (norm > 0)
        for a, b in ((v, w), (w, v)) if v != w else ((v, w),):
            corr = np.convolve(gated, vals[b - 1][::-1])[n - 1 : 2 * n - 1]
            out[a - 1] -= vals[a - 1] * corr * h
        roles = [(c, o.first, o.second) for c, o in enumerate(outs)]
        if v != w:
            roles += [(c, o.second, o.first) for c, o in enumerate(outs)]
        for col, rcp, other in roles:
            q = flux * w_eff[:, col]
            e = sigma + delta[col]
            if ch.kernel.kind == "uniform":
                # density q / e on [0, e]: each cell takes its overlap with [0, e]
                overlap = np.clip(e[None, :] - (x[:, None] - 0.5 * h), 0.0, h)
                dens = np.where(e > 0, q / np.where(e > 0, e, 1.0), 0.0)
                out[rcp - 1] += overlap @ dens / h
                out[rcp - 1, 0] += q[e == 0].sum() / h
            else:
                tiny = e < 0.5 * h
                out[rcp - 1, 0] += q[tiny].sum() / h
                pr = ch.kernel.densities[rcp].pdf(x)
                diff = e[None, :] - x[:, None]
                partner = ch.kernel.densities[other].pdf(np.maximum(diff, 0.0))
                contrib = np.where(diff >= 0, partner, 0.0)
                denom = h * (pr @ contrib)
                scale = np.where((denom > 0) & ~tiny, q / np.where(denom > 0, denom, 1.0), 0.0)
                out[rcp - 1] += pr * (contrib @ scale)
    return out


class TestDensityGrid:
    def test_geometry(self):
        g = ek.DensityGrid(10.0, np.ones((2, 5)) * 0.05)
        assert g.h == 2.0
        assert g.centers.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_rejects_negative(self):
        with pytest.raises(ek.ValidationError):
            ek.DensityGrid(1.0, np.array([[0.5, -0.5]]))

    def test_rejects_tiny_negative_and_keeps_zero_positive(self):
        # nothing is clipped: a round-off negative is refused like any other
        with pytest.raises(ek.ValidationError, match="nonnegative"):
            ek.DensityGrid(1.0, np.array([[0.5, -1e-13]]))
        g = ek.DensityGrid(1.0, np.array([[0.5, -0.0]]))
        assert repr(g.values.tolist()) == "[[0.5, 0.0]]"

    def test_projection_of_a_table_summing_past_one_has_no_negative_cell(self):
        # the table's cumulative sum ends above 1 while its cdf is 1 past x_max:
        # the cell after the table's end is empty, not a round-off negative
        fam = ek.Tabulated(2.0, np.full(10, 0.5 * (1 + 1e-10)))
        assert fam._cum[-1] > 1.0
        g = ek.DensityGrid.from_families([fam], 20.0, 10)
        assert g.values[0, 0] == pytest.approx(0.5, rel=1e-9)
        assert g.values[0, 1:].tolist() == [0.0] * 9

    def test_cell_average_projection_has_exact_mass(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 20.0, 400)
        assert ek.mass(g) == pytest.approx(1.0, abs=1e-14)


class TestMassAndMeanEnergy:
    def test_exponential_moments(self):
        tt = ek.TypeTable(np.array([0.0]))
        g = exp_grid(beta=2.0, x_max=30.0, n=3000)
        assert ek.mass(g) == pytest.approx(1.0, abs=1e-9)
        # cell centers against cell averages: O(h^2) quadrature error
        assert ek.mean_energy(g, tt) == pytest.approx(0.5, abs=1e-4)

    def test_zero_grid(self):
        g = ek.DensityGrid(5.0, np.zeros((1, 10)))
        assert ek.mass(g) == 0.0

    def test_shifted_gamma_mean_includes_internal(self):
        # kinetic part Gamma(2, 1), internal energy 1: mean total = 1 + 2
        tt = ek.TypeTable(np.array([1.0]))
        g = ek.DensityGrid.from_families([ek.GammaDensity(2.0, 1.0)], 50.0, 5000)
        assert ek.mean_energy(g, tt) == pytest.approx(3.0, abs=1e-4)


class TestGainOneType:
    def test_zero_density(self):
        g = ek.DensityGrid(10.0, np.zeros((1, 100)))
        assert np.all(gain_one_type(g) == 0.0)

    def test_exponential_fixed_point_fine_grid(self):
        g = exp_grid(beta=1.0, x_max=40.0, n=4000)
        gain = gain_one_type(g)
        assert np.max(np.abs(gain - g.values[0])) < 1e-3

    def test_uniform_gain_matches_adaptive_quadrature(self):
        # oracle: independent double quadrature of the gain at the first cell center
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 1)], 40.0, 4000)
        x0 = g.centers[0]
        pdf = ek.UniformDensity(0, 1).pdf

        def conv(s):
            lo, hi = max(0.0, s - 1.0), min(1.0, s)
            if hi <= lo:
                return 0.0
            val, _ = spint.quad(lambda u: float(pdf(u)) * float(pdf(s - u)), lo, hi, limit=200)
            return val

        expected, _ = spint.quad(lambda s: conv(s) / s, x0, 2.0, points=[1.0], limit=400)
        got = gain_one_type(g)[0]
        assert abs(got - expected) / expected < 1e-3


class TestRhsOneType:
    def test_exponential_is_stationary(self):
        for beta in (0.5, 1.0, 2.0):
            g = exp_grid(beta=beta, x_max=min(40.0, 80.0 / beta), n=4000)
            r = ek.rhs_one_type(g, 1.0)
            assert np.max(np.abs(r)) < 1e-3

    def test_zero_rate(self):
        g = exp_grid(n=200)
        assert np.all(ek.rhs_one_type(g, 0.0) == 0.0)

    def test_mass_conservation_of_generator(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 20.0, 2000)
        r = ek.rhs_one_type(g, 1.0)
        assert abs(float(r.sum() * g.h)) < 1e-10  # no tail mass yet: exact

    def test_energy_conservation_of_generator(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 20.0, 2000)
        r = ek.rhs_one_type(g, 1.0)
        assert abs(float((g.centers * r).sum() * g.h)) < 1e-10

    def test_refinement_at_least_halves_residual(self):
        # point-evaluated density: discretization error must drop at O(h) or better
        res = {}
        for n in (1000, 2000, 4000):
            g = exp_grid(beta=1.0, x_max=40.0, n=n, cell_average=False)
            res[n] = float(np.max(np.abs(ek.rhs_one_type(g, 1.0))))
        assert res[2000] <= 0.6 * res[1000]
        assert res[4000] <= 0.6 * res[2000]


class TestRhsMultitype:
    def test_one_type_consistency(self, one_type_network):
        g = exp_grid(n=1000)
        r1 = ek.rhs_one_type(g, 1.0)
        rm = ek.rhs_multitype(g, one_type_network)
        assert np.max(np.abs(rm[0] - r1)) < 1e-12

    def test_zero_rates(self):
        tt = ek.TypeTable(np.array([0.0]))
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(0.0), ek.UniformKernel([(1, 1, 1.0)]))]
        )
        g = exp_grid(n=500)
        assert np.all(ek.rhs_multitype(g, net) == 0.0)

    def test_canonical_product_law_is_stationary(self, two_type_canonical_network):
        g = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.Exponential(1.0)], 30.0, 1500, weights=[0.5, 0.5]
        )
        r = ek.rhs_multitype(g, two_type_canonical_network)
        assert np.max(np.abs(r)) < 1e-3

    def test_type_changing_channels_conserve_mass(self):
        # thresholds make some outputs infeasible at small pair energies; the
        # boundary cells must still account for the full collision mass
        tt = ek.TypeTable(np.array([0.0, 0.5037]))
        net = ek.ReactionNetwork(
            tt,
            [
                ek.BinaryChannel(
                    (1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0), (2, 2, 1.0)])
                ),
                ek.BinaryChannel(
                    (2, 2), ek.ConstantRate(1.0), ek.UniformKernel([(2, 2, 1.0), (1, 1, 1.0)])
                ),
            ],
        )
        g = ek.DensityGrid.from_families(
            [ek.Exponential(1.0), ek.Exponential(1.5)], 30.0, 1500, weights=[0.6, 0.4]
        )
        r = ek.rhs_multitype(g, net)
        assert abs(float(r.sum() * g.h)) < 1e-12
        x = g.centers
        de = sum(
            float(((tt.internal_energies[v] + x) * r[v]).sum() * g.h) for v in range(2)
        )
        assert abs(de) < 1e-4  # threshold cells quantize energy at O(h)

    def test_rejects_unary_channels(self, unary_two_type_network):
        g = ek.DensityGrid.from_families(
            [ek.Exponential(1.0), ek.Exponential(1.0)], 20.0, 100, weights=[0.5, 0.5]
        )
        with pytest.raises(ek.ValidationError, match="binary"):
            ek.rhs_multitype(g, unary_two_type_network)
        with pytest.raises(ek.ValidationError, match="binary"):
            ek.SolverConfig(t_end=1.0, network=unary_two_type_network).validate()

    @pytest.mark.parametrize(
        "channel, reason",
        [
            (
                lambda: ek.BinaryChannel((1, 2), ek.ConstantRate(1.0), table_kernel()),
                "kernel kind 'custom' is simulator-only",
            ),
            (
                lambda: ek.BinaryChannel(
                    (1, 2),
                    ek.CallableRate(lambda t, tp: 1.0 + np.asarray(t) * np.asarray(tp)),
                    ek.UniformKernel([(1, 2, 1.0)]),
                ),
                "not a function of the energy sum",
            ),
            (
                lambda: canonical_channel(ek.GammaDensity(2.0, 2.0), ek.Exponential(1.0)),
                r"one common beta, got betas \[1.0, 2.0\]",
            ),
            (
                lambda: canonical_channel(ek.UniformDensity(0.0, 30.0), ek.Exponential(1.0)),
                "type 1 is UniformDensity, not a gamma law",
            ),
        ],
        ids=["table", "non_sum_rate", "mixed_beta", "uniform_density"],
    )
    def test_refuses_what_the_plan_cannot_represent(self, channel, reason):
        # a representable (1, 1) channel next to the refused (1, 2) one
        good = ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))
        net = ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 0.0])), [good, channel()])
        match = r"reactant pair \(1, 2\): .*" + reason
        with pytest.raises(ek.ValidationError, match=match):
            ek.CollisionPlan(net, 40, 6.0)
        with pytest.raises(ek.ValidationError, match=match):
            ek.SolverConfig(t_end=1.0, network=net).validate()


class TestCollisionPlan:
    @pytest.mark.parametrize(
        "make_network",
        [
            "two_type_canonical_network",
            canonical_gap_network,
            gap_network,
            lambda: gap_network((0.0, 0.5037), ek.SumDecayRate(1.5, 0.4)),
        ],
    )
    def test_matches_dense_reference(self, make_network, request):
        if isinstance(make_network, str):
            net = request.getfixturevalue(make_network)
        else:
            net = make_network()
        g = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 3), ek.Exponential(1.0)], 12.0, 96, weights=[0.6, 0.4]
        )
        ref = reference_rhs(g, net)
        got = ek.rhs_multitype(g, net)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_plan_takes_raw_values(self, two_type_canonical_network):
        g = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.UniformDensity(0, 2)], 12.0, 60, weights=[0.5, 0.5]
        )
        plan = ek.CollisionPlan(two_type_canonical_network, g.n_cells, g.x_max)
        raw = ek.rhs_multitype(g.values, two_type_canonical_network, plan=plan)
        assert np.array_equal(raw, ek.rhs_multitype(g, two_type_canonical_network))
        with pytest.raises(ek.ValidationError, match="shape"):
            plan.rhs(g.values[:, :-1])
        with pytest.raises(ek.ValidationError, match="another network"):
            ek.rhs_multitype(g.values, gap_network(), plan=plan)

    def test_raw_values_need_a_plan(self, two_type_canonical_network):
        g = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.UniformDensity(0, 2)], 12.0, 60, weights=[0.5, 0.5]
        )
        with pytest.raises(ek.ValidationError, match="raw grid values carry no x_max"):
            ek.rhs_multitype(g.values, two_type_canonical_network)

    def test_refuses_a_grid_on_another_x_max(self, two_type_canonical_network):
        # same cell count, so only x_max tells the grids apart
        g = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.UniformDensity(0, 2)], 12.0, 60, weights=[0.5, 0.5]
        )
        plan = ek.CollisionPlan(two_type_canonical_network, g.n_cells, 15.0)
        with pytest.raises(ek.ValidationError, match=r"spans \[0, 12.0\].*\[0, 15.0\]"):
            ek.rhs_multitype(g, two_type_canonical_network, plan=plan)
        same = ek.CollisionPlan(two_type_canonical_network, g.n_cells, g.x_max)
        assert np.array_equal(
            ek.rhs_multitype(g, two_type_canonical_network, plan=same),
            ek.rhs_multitype(g, two_type_canonical_network),
        )

    def test_gamma_law_at_offset_zero_is_planned_as_the_gamma_law(self):
        # Shifted(base, 0.0) reads its base's gamma shape, so the plan takes it and
        # builds the same operator as from the base itself
        g = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 3), ek.Exponential(1.0)], 12.0, 96, weights=[0.6, 0.4]
        )
        plain = ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0, 0.0])),
            [canonical_channel(ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0))],
        )
        shifted = ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0, 0.0])),
            [
                canonical_channel(
                    ek.Shifted(ek.GammaDensity(2.0, 1.0), 0.0),
                    ek.Shifted(ek.Exponential(1.0), 0.0),
                )
            ],
        )
        assert np.array_equal(ek.rhs_multitype(g, shifted), ek.rhs_multitype(g, plain))

    def test_equal_laws_share_deposit_rows_across_channels(self):
        # (1, 1) and (2, 2) each feed both recipients, so the rows of (1, G, G) and
        # (2, E, E) are met twice; densities compare by value, so laws built anew per
        # channel merge into the same rows as laws the channels share
        outputs = {(1, 1): [(1, 1, 1.0), (2, 2, 1.0)], (1, 2): [(1, 2, 1.0)],
                   (2, 2): [(2, 2, 1.0), (1, 1, 1.0)]}

        def network(laws):
            return ek.ReactionNetwork(ek.TypeTable(np.array([0.0, 0.0])), [
                ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel(outs, laws()))
                for pair, outs in outputs.items()
            ])

        shared_laws = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)}
        shared = network(lambda: shared_laws)
        apart = network(lambda: {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(1.0)})
        g = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.UniformDensity(0, 2)], 12.0, 60, weights=[0.5, 0.5]
        )
        plans = [ek.CollisionPlan(net, g.n_cells, g.x_max) for net in (shared, apart)]
        assert len(plans[0]._adds) == len(plans[1]._adds) == 4
        assert np.array_equal(plans[1].rhs(g.values), plans[0].rhs(g.values))

    def test_pdfs_evaluated_only_while_building_the_plan(
        self, two_type_canonical_network, monkeypatch
    ):
        calls = []
        for cls in (ek.GammaDensity, ek.Exponential):
            monkeypatch.setattr(
                cls, "pdf", lambda self, x, orig=cls.pdf: calls.append(1) or orig(self, x)
            )
        g0 = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 2), ek.Exponential(1.0)], 12.0, 60, weights=[0.5, 0.5]
        )
        counts = []
        for t_end in (0.1, 0.5):
            calls.clear()
            cfg = ek.SolverConfig(
                dt=0.05, t_end=t_end, scheme="rk4", network=two_type_canonical_network
            )
            ek.integrate(g0, cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


PROBE_X_MAX = 12.0


@st.composite
def plan_networks(draw):
    """Networks the collision plan represents, small enough that nothing leaks.

    Up to three types whose internal energies are all 0 or drawn from
    [0, x_max / 8]; on every reactant pair a constant or sum_decay rate and a
    uniform or canonical kernel with one or two outputs, the canonical
    densities gammas of one common beta in {0.5, 1}, so beta * x_max <= 12.
    """
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        internal = [0.0] * n
    else:
        gap = st.floats(0.0, PROBE_X_MAX / 8, allow_subnormal=False)
        internal = draw(st.lists(gap, min_size=n, max_size=n))
    beta = draw(st.sampled_from([0.5, 1.0]))
    dens = {v: ek.GammaDensity(draw(st.floats(0.5, 3.0)), beta) for v in range(1, n + 1)}
    type_ids = st.integers(1, n)
    binary = []
    for v in range(1, n + 1):
        for w in range(v, n + 1):
            if v == w:  # exchangeable slots: a mixed output needs its mirror
                a, b = draw(type_ids), draw(type_ids)
                outputs = [(a, b, 1.0)] if a == b else [(a, b, 1.0), (b, a, 1.0)]
            else:
                pairs = st.tuples(type_ids, type_ids)
                pairs = draw(st.lists(pairs, min_size=1, max_size=2, unique=True))
                outputs = [(a, b, draw(st.floats(0.1, 3.0))) for a, b in pairs]
            if draw(st.booleans()):
                kernel = ek.UniformKernel(outputs)
            else:
                kernel = ek.CanonicalKernel(outputs, dens)
            scale = draw(st.floats(0.1, 2.0))
            if draw(st.booleans()):
                rate = ek.ConstantRate(scale)
            else:
                rate = ek.SumDecayRate(scale, draw(st.floats(0.0, 1.0)))
            binary.append(ek.BinaryChannel((v, w), rate, kernel))
    return ek.ReactionNetwork(ek.TypeTable(np.array(internal)), binary)


@given(net=plan_networks(), n_cells=st.sampled_from([48, 96]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_collision_operator_conserves_mass_on_random_networks(net, n_cells, seed):
    # densities on [0, x_max / 3] and gaps of at most x_max / 8 keep every
    # available energy below x_max, so nothing leaks past the grid
    values = np.zeros((net.types.count, n_cells))
    values[:, : n_cells // 3] = np.random.default_rng(seed).random((net.types.count, n_cells // 3))
    g = ek.DensityGrid(PROBE_X_MAX, values)
    r = ek.rhs_multitype(g, net)
    scale = np.abs(r).sum() * g.h
    assert abs(r.sum()) * g.h <= 1e-9 * scale
    if not np.any(net.types.internal_energies):
        # without gaps the deposits are exact in energy too
        assert abs((g.centers * r).sum()) * g.h <= 1e-9 * PROBE_X_MAX * scale


class TestIntegrate:
    def test_t_end_zero_returns_initial(self):
        g = exp_grid(n=100)
        cfg = ek.SolverConfig(dt=0.1, t_end=0.0, scheme="rk4", network=ONE_TYPE)
        out = ek.integrate(g, cfg)
        assert len(out) == 1
        t, grid = out[0]
        assert t == 0.0
        assert np.array_equal(grid.values, g.values)

    def test_relaxation_toward_exponential(self):
        # short version of the long acceptance run
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 15.0, 600)
        cfg = ek.SolverConfig(dt=0.02, t_end=10.0, scheme="rk4", network=ONE_TYPE)
        (_, out), = ek.integrate(g, cfg)
        err = np.max(np.abs(out.values[0] - np.exp(-out.centers)))
        assert err < 3e-2

    def test_energy_conserved_along_run(self):
        tt = ek.TypeTable(np.array([0.0]))
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 15.0, 600)
        cfg = ek.SolverConfig(dt=0.02, t_end=5.0, scheme="rk4", network=ONE_TYPE)
        (_, out), = ek.integrate(g, cfg)
        assert ek.mean_energy(out, tt) == pytest.approx(ek.mean_energy(g, tt), rel=1e-3)

    def test_dopri5_and_rk4_agree_at_small_dt(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 300)
        out_d = ek.integrate(g, ek.SolverConfig(t_end=1.0, network=ONE_TYPE))
        rk4 = ek.SolverConfig(dt=0.002, t_end=1.0, scheme="rk4", network=ONE_TYPE)
        out_r = ek.integrate(g, rk4)
        assert np.max(np.abs(out_d[0][1].values - out_r[0][1].values)) < 1e-7

    def test_grid_refinement_convergence(self):
        # successive resolutions must differ by at most O(h)
        sols = {}
        for n in (150, 300, 600):
            g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 15.0, n)
            cfg = ek.SolverConfig(dt=0.02, t_end=2.0, scheme="rk4", network=ONE_TYPE)
            sols[n] = ek.integrate(g, cfg)[0][1].values[0]
        d1 = np.max(np.abs(sols[150] - sols[300].reshape(-1, 2).mean(axis=1)))
        d2 = np.max(np.abs(sols[300] - sols[600].reshape(-1, 2).mean(axis=1)))
        assert d2 <= 0.6 * d1

    def test_multitype_network_integration(self, two_type_canonical_network):
        # starting at the invariant product profile, the multitype stepper
        # must hold it; starting off it, mass and energy stay put
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        g0 = ek.DensityGrid.from_families(
            [ek.GammaDensity(2, 1), ek.Exponential(1.0)], 18.0, 360, weights=[0.5, 0.5]
        )
        cfg = ek.SolverConfig(dt=0.05, t_end=1.0, scheme="rk4", network=two_type_canonical_network)
        (_, out), = ek.integrate(g0, cfg)
        assert np.max(np.abs(out.values - g0.values)) < 5e-3
        g1 = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 2), ek.Exponential(1.0)], 18.0, 360, weights=[0.5, 0.5]
        )
        (_, moved), = ek.integrate(g1, cfg)
        assert np.max(np.abs(moved.values - g1.values)) > 1e-3  # genuinely evolves
        assert ek.mass(moved) == pytest.approx(ek.mass(g1), abs=1e-12)
        assert ek.mean_energy(moved, tt) == pytest.approx(ek.mean_energy(g1, tt), rel=1e-6)

    def test_blowup_reports_step(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 200)
        cfg = ek.SolverConfig(dt=50.0, t_end=200.0, scheme="rk4", network=ONE_TYPE)
        with pytest.raises(ek.SolverBlowupError, match="step") as err:
            ek.integrate(g, cfg)
        assert (err.value.step, err.value.time) == (1, 50.0)

    def test_negative_rk4_result_raises(self, monkeypatch):
        # stages stay at the (nonnegative) state, and only the last stage's
        # slope takes the empty cells below zero: nothing is clipped
        calls = []

        def rhs(u, network, plan):
            calls.append(1)
            return np.where(u > 0, 0.0, -1e-9) if len(calls) % 4 == 0 else np.zeros_like(u)

        monkeypatch.setattr(solver, "rhs_multitype", rhs)
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 200)
        cfg = ek.SolverConfig(dt=0.1, t_end=1.0, scheme="rk4", network=ONE_TYPE)
        with pytest.raises(ek.SolverBlowupError, match="negative density") as err:
            ek.integrate(g, cfg)
        assert (err.value.step, err.value.time) == (1, 0.1)

    def test_snapshot_times(self):
        g = exp_grid(n=100, x_max=20.0)
        cfg = ek.SolverConfig(
            dt=0.1, t_end=1.0, scheme="rk4", network=ONE_TYPE, snapshot_times=(0.0, 0.5, 1.0)
        )
        out = ek.integrate(g, cfg)
        assert [round(t, 6) for t, _ in out] == [0.0, 0.5, 1.0]

    def test_one_type_mass_kept_over_long_run(self):
        # the quadratic loss keeps unit mass stable: only the tail past x_max leaks
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 20.0, 400)
        cfg = ek.SolverConfig(dt=0.05, t_end=20.0, scheme="rk4", network=ONE_TYPE)
        (_, out), = ek.integrate(g, cfg)
        assert abs(ek.mass(out) - ek.mass(g)) < 1e-6 * ek.mass(g)

    def test_stage_blowup_is_a_solver_error(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 200)
        cfg = ek.SolverConfig(dt=2.0, t_end=4.0, scheme="rk4", network=ONE_TYPE)
        with pytest.raises(ek.SolverBlowupError, match="stage") as err:
            ek.integrate(g, cfg)
        assert err.value.step == 1 and err.value.time == 2.0

    def test_snapshots_land_on_requested_times(self):
        # dt divides neither requested time: the steps that would pass them are
        # shortened, and each label is the time reached
        net = gap_network()
        g0 = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 2), ek.UniformDensity(0, 1.5)], 20.0, 400, weights=[0.6, 0.4]
        )
        coarse, fine = (
            ek.integrate(
                g0,
                ek.SolverConfig(
                    dt=dt, t_end=1.0, scheme="rk4", network=net, snapshot_times=(0.5, 1.0)
                ),
            )
            for dt in (0.3, 0.01)
        )
        assert [t for t, _ in coarse] == [0.5, 1.0]
        for (_, a), (_, b) in zip(coarse, fine):
            assert np.max(np.abs(a.values - b.values)) < 1e-4

    def test_snapshots_at_multiples_of_dt_keep_the_steps(self):
        g = exp_grid(n=100, x_max=20.0)
        cfg = ek.SolverConfig(
            dt=0.1, t_end=1.0, scheme="rk4", network=ONE_TYPE, snapshot_times=(0.3, 1.0)
        )
        (t1, _), (t2, end) = ek.integrate(g, cfg)
        assert (t1, t2) == (0.3, 1.0)
        alone_cfg = ek.SolverConfig(dt=0.1, t_end=1.0, scheme="rk4", network=ONE_TYPE)
        (_, alone), = ek.integrate(g, alone_cfg)
        assert np.array_equal(end.values, alone.values)

    def test_config_validation(self):
        g = exp_grid(n=100)
        with pytest.raises(ek.ValidationError):
            ek.integrate(g, ek.SolverConfig(dt=0.0, t_end=1.0, scheme="rk4", network=ONE_TYPE))
        with pytest.raises(TypeError, match="network"):
            ek.SolverConfig(dt=0.1, t_end=1.0, scheme="rk4")
        with pytest.raises(ek.ValidationError):
            ek.integrate(g, ek.SolverConfig(dt=0.1, t_end=1.0, network=ONE_TYPE, scheme="leapfrog"))

    def test_scheme_options_validated(self):
        g = exp_grid(n=100)
        for cfg, message in (
            (ek.SolverConfig(t_end=1.0, network=ONE_TYPE, scheme="rk4"), "needs dt"),
            (ek.SolverConfig(dt=0.1, t_end=1.0, network=ONE_TYPE, scheme="rk4", rtol=1e-6), "rtol"),
            (
                ek.SolverConfig(dt=0.1, t_end=1.0, network=ONE_TYPE),
                "dt applies to scheme 'rk4' only",
            ),
            (ek.SolverConfig(t_end=1.0, network=ONE_TYPE, rtol=0.0), "rtol"),
            (ek.SolverConfig(t_end=1.0, network=ONE_TYPE, rtol=1.5), "rtol"),
            (ek.SolverConfig(t_end=1.0, network=ONE_TYPE, scheme="euler"), "scheme"),
        ):
            with pytest.raises(ek.ValidationError, match=message):
                ek.integrate(g, cfg)

    def test_unknown_scheme_fault_names_its_field(self):
        with pytest.raises(ek.ValidationError) as err:
            ek.SolverConfig(t_end=1.0, network=ONE_TYPE, scheme="euler").validate()
        assert err.value.field == "scheme"

    def test_rtol_fault_names_its_field(self):
        with pytest.raises(ek.ValidationError) as err:
            ek.SolverConfig(t_end=1.0, network=ONE_TYPE, rtol=0.0).validate()
        assert err.value.field == "rtol"

    def test_result_counts_steps_and_right_hand_sides(self):
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 100)
        out = ek.integrate(g, ek.SolverConfig(dt=0.1, t_end=1.0, scheme="rk4", network=ONE_TYPE))
        assert (out.steps_accepted, out.steps_rejected, out.rhs_evals) == (10, 0, 40)
        out = ek.integrate(g, ek.SolverConfig(t_end=1.0, network=ONE_TYPE))
        assert 0 < out.steps_accepted < 20
        attempts = out.steps_accepted + out.steps_rejected
        # FSAL: one right-hand side to start, at most six per attempted step
        assert out.steps_accepted * 6 < out.rhs_evals <= 1 + 6 * attempts


def two_gap_grid():
    return ek.DensityGrid.from_families(
        [ek.UniformDensity(0, 2), ek.UniformDensity(0, 1.5)], 20.0, 400, weights=[0.6, 0.4]
    )


class TestDopri5:
    def test_lands_exactly_on_every_requested_time(self):
        net = gap_network()
        times = (0.0, 0.13, 0.5, 0.51, 1.7, 2.5)
        cfg = ek.SolverConfig(t_end=3.0, network=net, snapshot_times=times)
        out = ek.integrate(two_gap_grid(), cfg)
        assert [t for t, _ in out] == list(times)
        # and each state is the one at its label
        rk4 = ek.SolverConfig(t_end=3.0, network=net, snapshot_times=times, scheme="rk4", dt=0.01)
        ref = ek.integrate(two_gap_grid(), rk4)
        assert [t for t, _ in ref] == list(times)
        for (_, a), (_, b) in zip(out, ref):
            assert np.max(np.abs(a.values - b.values)) < 1e-7

    def test_bundled_solve_matches_fixed_step_rk4(self):
        sc = ek.load_scenario(SCENARIO_DIR / "exponential_equilibrium.json")
        grid0, cfg = sc.solver_setup()
        assert (cfg.scheme, cfg.dt, cfg.rtol) == ("dopri5", None, None)
        out = ek.integrate(grid0, cfg)
        assert [t for t, _ in out] == [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0]
        assert out.rhs_evals <= 500
        rk4 = ek.SolverConfig(
            cfg.network, cfg.t_end, dt=0.01, scheme="rk4", snapshot_times=cfg.snapshot_times
        )
        ref = ek.integrate(grid0, rk4)
        assert max(np.max(np.abs(a.values - b.values)) for (_, a), (_, b) in zip(out, ref)) < 1e-7

    def test_mass_conserved_without_gap_or_leak(self, two_type_canonical_network):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        g0 = ek.DensityGrid.from_families(
            [ek.UniformDensity(0, 2), ek.Exponential(1.0)], 18.0, 360, weights=[0.5, 0.5]
        )
        cfg = ek.SolverConfig(t_end=2.0, network=two_type_canonical_network, snapshot_times=(1.0, 2.0))
        for _, grid in ek.integrate(g0, cfg):
            assert abs(ek.mass(grid) - ek.mass(g0)) <= 1e-12 * ek.mass(g0)
            assert ek.mean_energy(grid, tt) == pytest.approx(ek.mean_energy(g0, tt), rel=1e-6)

    # A flat state with one empty cell and a zero right-hand side, except that
    # call ``call`` of the right-hand side returns -delta in the empty cell.
    # The first step lands on t_end = 1 (tau = 1), and a dopri5 stage or the
    # result then holds the dip tau * a * delta, a its row's weight of that call.
    FLAT = np.array([[0.0, 1.0, 1.0, 1.0]])
    FLOOR = -solver._KAPPA * solver._DEFAULT_RTOL * FLAT.mean()  # -kappa * atol

    def _dipped_solve(self, monkeypatch, call, delta):
        seen = []

        def rhs(u, network, plan):
            seen.append(float(u.min()))
            k = np.zeros_like(u)
            if len(seen) == call:
                k[0, 0] = -delta
            return k

        monkeypatch.setattr(solver, "rhs_multitype", rhs)
        out = ek.integrate(ek.DensityGrid(10.0, self.FLAT), ek.SolverConfig(t_end=1.0, network=ONE_TYPE))
        (_, end), = out
        # k2 has no weight in the result, and a rejected step is redone with a zero rhs
        assert np.array_equal(end.values, self.FLAT)
        return out, seen

    def test_shallow_stage_dip_is_admitted_counted_and_fed_to_the_rhs(self, monkeypatch):
        # k2 = -delta gives the third stage a dip of 9/40 delta, half the floor;
        # k2's weights in the later stages are negative, and 0 in the result
        out, seen = self._dipped_solve(monkeypatch, call=2, delta=0.5 * -self.FLOOR / (9 / 40))
        assert (out.steps_accepted, out.steps_rejected, out.stages_admitted) == (1, 0, 1)
        assert seen[2] == pytest.approx(0.5 * self.FLOOR, rel=1e-12)  # the dip reached the rhs
        assert min(seen) == seen[2] and len(seen) == out.rhs_evals == 7

    def test_deep_stage_dip_is_rejected_and_retried(self, monkeypatch):
        # the same dip at twice the floor: the step is halved before any right-
        # hand side sees the stage, and the retried steps are clean
        out, seen = self._dipped_solve(monkeypatch, call=2, delta=2.0 * -self.FLOOR / (9 / 40))
        assert out.steps_rejected == 1 and out.stages_admitted == 0
        assert out.steps_accepted == 2 and min(seen) == 0.0

    def test_negative_result_is_rejected(self, monkeypatch):
        # k3 = -delta dips stages 4 to 6 by at most 64448/6561 delta, within the
        # floor, and the result by 500/1113 delta: the stages are admitted and
        # the result is refused, so no snapshot holds a negative density
        out, seen = self._dipped_solve(monkeypatch, call=3, delta=0.5 * -self.FLOOR / (64448 / 6561))
        assert out.steps_rejected == 1 and out.stages_admitted == 3
        assert min(seen) == pytest.approx(0.5 * self.FLOOR, rel=1e-12)

    def test_real_solve_feeds_only_admitted_dips_to_the_rhs(self, monkeypatch):
        # the one-type equation from a compact start: stages at the edge of the
        # advancing tail dip a little below zero and are admitted, none deeper
        seen = []
        rhs = solver.rhs_multitype

        def spy(u, network, plan):
            seen.append(float(u.min()))
            return rhs(u, network, plan=plan)

        monkeypatch.setattr(solver, "rhs_multitype", spy)
        g = ek.DensityGrid.from_families([ek.UniformDensity(0, 2)], 10.0, 200)
        out = ek.integrate(g, ek.SolverConfig(t_end=4.0, network=ONE_TYPE))
        floor = -solver._KAPPA * solver._DEFAULT_RTOL * float(g.values.mean())
        assert out.stages_admitted == sum(v < 0.0 for v in seen) > 0
        assert min(seen) >= floor
        (_, end), = out
        assert end.values.min() >= 0.0
        rk4 = ek.SolverConfig(dt=0.01, t_end=4.0, scheme="rk4", network=ONE_TYPE)
        (_, ref), = ek.integrate(g, rk4)
        assert np.max(np.abs(end.values - ref.values)) < 1e-7

    def test_error_control_meets_rtol_on_linear_decay(self, monkeypatch):
        # du/dt = -u from u = 1, with one stage of the first step perturbed by
        # 1e-2: its error estimate passes rtol, so that step is rejected and
        # redone, and every snapshot still meets the tolerance
        calls = []

        def rhs(u, network, plan):
            calls.append(1)
            return -u + (1e-2 if len(calls) == 3 else 0.0)

        monkeypatch.setattr(solver, "rhs_multitype", rhs)
        g = ek.DensityGrid(10.0, np.ones((1, 4)))
        times = (0.25, 1.0, 3.0)
        out = ek.integrate(g, ek.SolverConfig(t_end=3.0, network=ONE_TYPE, snapshot_times=times))
        assert out.steps_rejected == 1
        for t, grid in out:
            assert np.max(np.abs(grid.values - np.exp(-t))) < 1e-7 * np.exp(-t)

    def test_step_size_underflow_raises_with_step_and_time(self, monkeypatch):
        # every cell falls at unit rate: the density reaches zero at t = 1, and
        # any step past it goes negative, so the step halves until it underflows
        monkeypatch.setattr(solver, "rhs_multitype", lambda u, network, plan: -np.ones_like(u))
        g = ek.DensityGrid(10.0, np.ones((1, 50)))
        with pytest.raises(ek.SolverBlowupError, match="underflow") as err:
            ek.integrate(g, ek.SolverConfig(t_end=2.0, network=ONE_TYPE))
        assert err.value.time == pytest.approx(1.0, abs=1e-12)
        assert err.value.step > 1
