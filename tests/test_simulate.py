import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enerkin as ek


def uniform_net(alpha=1.0):
    tt = ek.TypeTable(np.array([0.0]))
    return ek.ReactionNetwork(
        tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(alpha), ek.UniformKernel([(1, 1, 1.0)]))]
    )


class TestSampleNextEvent:
    def test_two_particle_total_rate(self):
        # one unordered pair at rate alpha / M = 1/2
        net = uniform_net()
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        rng = np.random.default_rng(0)
        waits = np.array([ek.sample_next_event(sys0, net, rng)[0] for _ in range(20_000)])
        assert waits.mean() == pytest.approx(2.0, rel=0.03)

    def test_zero_rate_returns_none(self):
        net = uniform_net(alpha=0.0)
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        wait, event = ek.sample_next_event(sys0, net, np.random.default_rng(0))
        assert wait == np.inf and event is None

    def test_pair_selection_frequencies_match_rates(self):
        # brute-force oracle: the three unordered pair rates at M = 3
        tt = ek.TypeTable(np.array([0.0]))
        rate = ek.CallableRate(
            lambda t, tp: np.asarray(t, dtype=float) + np.asarray(tp, dtype=float)
        )
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        energies = np.array([0.5, 1.0, 3.0])
        sys0 = ek.ParticleSystem(np.array([1, 1, 1]), energies)
        pair_rate = {
            (0, 1): energies[0] + energies[1],
            (0, 2): energies[0] + energies[2],
            (1, 2): energies[1] + energies[2],
        }
        total = sum(pair_rate.values())
        rng = np.random.default_rng(17)
        n = 100_000
        counts = {k: 0 for k in pair_rate}
        for _ in range(n):
            _, ev = ek.sample_next_event(sys0, net, rng)
            counts[tuple(sorted((ev.i, ev.j)))] += 1
        for k, r in pair_rate.items():
            p = r / total
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[k] - n * p) <= 3 * sigma

    def test_negative_rate_faults(self):
        tt = ek.TypeTable(np.array([0.0]))
        rate = ek.CallableRate(lambda t, tp: np.asarray(t) - np.asarray(tp) * 0 - 10.0)
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ek.ValidationError, match="negative rate"):
            ek.sample_next_event(sys0, net, np.random.default_rng(0))


class TestEmpiricalHistogram:
    def test_single_particle(self):
        sys0 = ek.ParticleSystem(np.array([1]), np.array([0.5]))
        hist = ek.empirical_histogram(sys0, 1, np.array([0.0, 1.0]))
        assert hist.tolist() == [1.0]

    def test_mass_sums_to_one_across_types(self):
        rng = np.random.default_rng(0)
        sys0 = ek.ParticleSystem(rng.integers(1, 4, 200), rng.uniform(0, 5, 200))
        edges = np.linspace(0, 5.0, 11)
        total = sum(
            float(np.sum(ek.empirical_histogram(sys0, v, edges) * np.diff(edges)))
            for v in (1, 2, 3)
        )
        assert total == pytest.approx(1.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        sys0 = ek.ParticleSystem(rng.integers(1, 3, 100), rng.uniform(0, 2, 100))
        edges = np.array([0.0, 0.5, 1.0, 2.0])
        hist = ek.empirical_histogram(sys0, 1, edges)
        for b in range(3):
            n = 0
            for v, t in zip(sys0.type_ids, sys0.kinetic_energies):
                inside = edges[b] <= t < edges[b + 1] or (b == 2 and t == edges[3])
                if v == 1 and inside:
                    n += 1
            assert hist[b] == pytest.approx(n / (100 * (edges[b + 1] - edges[b])))

    def test_empty_bins_fault(self):
        sys0 = ek.ParticleSystem(np.array([1]), np.array([0.5]))
        with pytest.raises(ek.ValidationError):
            ek.empirical_histogram(sys0, 1, np.array([1.0]))
        with pytest.raises(ek.ValidationError):
            ek.empirical_histogram(sys0, 1, np.array([1.0, 0.5]))

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 60),
        hi=st.floats(0.5, 20.0),
        nbins=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_mass_never_exceeds_one(self, seed, m, hi, nbins):
        rng = np.random.default_rng(seed)
        sys0 = ek.ParticleSystem(rng.integers(1, 4, m), rng.exponential(1.0, m))
        edges = np.linspace(0.0, hi, nbins + 1)
        total = sum(
            float(np.sum(ek.empirical_histogram(sys0, v, edges) * np.diff(edges)))
            for v in (1, 2, 3)
        )
        assert total <= 1.0 + 1e-12  # equality iff the bins cover every energy


class TestRun:
    def test_t_end_zero_snapshot_equals_initial(self):
        net = uniform_net()
        init = ek.ParticleSystem(np.array([1, 1, 1]), np.array([0.1, 0.2, 0.3]))
        cfg = ek.SimulatorConfig(net, init, t_end=0.0, snapshot_times=(0.0,), seed=5)
        traj = ek.run(cfg)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].state.multiset_equal(init)
        assert traj.final_state.multiset_equal(init)
        assert traj.events_applied == 0

    def test_identical_seeds_bit_identical(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((40,), (ek.Exponential(1.0),)),
            t_end=5.0,
            snapshot_times=(2.5, 5.0),
            seed=11,
        )
        t1, t2 = ek.run(cfg), ek.run(cfg)
        assert np.array_equal(t1.final_state.kinetic_energies, t2.final_state.kinetic_energies)
        for s1, s2 in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(s1.state.kinetic_energies, s2.state.kinetic_energies)
        cfg.seed = 12
        t3 = ek.run(cfg)
        assert not np.array_equal(t1.final_state.kinetic_energies, t3.final_state.kinetic_energies)

    def test_energy_and_count_conserved(self):
        net = uniform_net()
        tt = net.types
        cfg = ek.SimulatorConfig(
            net, ek.TypeCountsInitial((100,), (ek.Exponential(0.5),)), t_end=20.0, seed=2
        )
        traj = ek.run(cfg)
        init_cfg_rng = np.random.default_rng(np.random.SeedSequence(entropy=2, spawn_key=(0,)))
        e0 = float(ek.Exponential(0.5).sample(init_cfg_rng, 100).sum())
        assert traj.final_state.size == 100
        assert ek.total_energy(traj.final_state, tt) == pytest.approx(e0, rel=1e-9)
        assert traj.events_applied > 100

    def test_snapshot_event_counts_nondecreasing(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((30,), (1.0,)),
            t_end=10.0,
            snapshot_times=tuple(np.linspace(0, 10, 11)),
            seed=3,
        )
        traj = ek.run(cfg)
        counts = [s.event_count for s in traj.snapshots]
        assert counts == sorted(counts)
        assert all(int(s.type_counts.sum()) == 30 for s in traj.snapshots)

    def test_max_events_terminates(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net, ek.TypeCountsInitial((30,), (1.0,)), t_end=1e9, max_events=250, seed=4
        )
        traj = ek.run(cfg)
        assert traj.events_applied + traj.noop_events == 250

    def test_infeasible_channels_are_noops(self):
        # the only output needs more energy than most collisions carry
        tt = ek.TypeTable(np.array([0.0, 4.0]))
        kernel = ek.UniformKernel([(2, 2, 1.0)])
        net = ek.ReactionNetwork(tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), kernel)])
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((20, 0), (0.1, 0.0)),
            t_end=1e9,
            max_events=100,
            seed=5,
        )
        traj = ek.run(cfg)
        assert traj.noop_events == 100
        assert traj.events_applied == 0
        assert traj.final_state.type_counts(2).tolist() == [20, 0]

    def test_first_jump_energy_uniform_on_total(self):
        # two-particle chain: the first post-collision energy is uniform on [0, U]
        net = uniform_net()
        rng = np.random.default_rng(505)
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([0.3, 0.7]))
        outs = np.empty(4000)
        for k in range(4000):
            _, ev = ek.sample_next_event(sys0, net, rng)
            new, applied = ek.execute_event(sys0, ev, net, rng)
            assert applied
            outs[k] = new.kinetic_energies[ev.i]
        d = ek.ks_distance(outs, lambda x: np.clip(x, 0, 1))
        assert d < 1.36 / np.sqrt(4000)

    def test_type_counts_constant_with_type_preserving_channels(self, two_type_canonical_network):
        cfg = ek.SimulatorConfig(
            two_type_canonical_network,
            ek.TypeCountsInitial((25, 35), (ek.GammaDensity(2, 1), ek.Exponential(1.0))),
            t_end=1e9,
            max_events=500,
            snapshot_times=(),
            seed=6,
        )
        traj = ek.run(cfg)
        assert traj.final_state.type_counts(2).tolist() == [25, 35]

    def test_one_particle_chain_restricted_by_total_energy(self):
        # with ordered internal energies, a particle whose total energy sits
        # below a type's threshold can never visit that type
        tt = ek.TypeTable(np.array([0.0, 1.0, 3.0]))
        chans = [
            ek.UnaryChannel(v, w, ek.ConstantUnaryRate(1.0))
            for v in (1, 2, 3)
            for w in (1, 2, 3)
            if v != w
        ]
        net = ek.ReactionNetwork(tt, unary=chans)
        init = ek.ParticleSystem(np.array([1]), np.array([2.0]))  # total energy 2 < 3
        cfg = ek.SimulatorConfig(
            net, init, t_end=200.0, snapshot_times=tuple(np.linspace(0, 200, 41)), seed=8
        )
        traj = ek.run(cfg)
        visited = {int(s.state.type_ids[0]) for s in traj.snapshots}
        assert 3 not in visited
        assert visited == {1, 2}  # both feasible types are reached

    def test_unary_only_keeps_total_below_gap_frozen(self, unary_two_type_network):
        # particles of type 1 with kinetic energy under the gap can never convert
        cfg = ek.SimulatorConfig(
            unary_two_type_network,
            ek.TypeCountsInitial((50, 0), (0.5, 0.0)),
            t_end=50.0,
            seed=7,
        )
        traj = ek.run(cfg)
        assert traj.events_applied == 0
        assert traj.final_state.type_counts(2).tolist() == [50, 0]

    def test_combined_binary_and_unary_channels(self):
        # collisions and conversions interleave; count and energy still conserved
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        kernel = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])
        net = ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((1, 2), ek.ConstantRate(1.0), kernel),
                ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)])),
                ek.BinaryChannel((2, 2), ek.ConstantRate(1.0), ek.UniformKernel([(2, 2, 1.0)])),
            ],
            unary=[
                ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(0.5)),
                ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(0.5)),
            ],
        )
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((40, 40), (ek.Exponential(0.5), ek.Exponential(0.5))),
            t_end=1e9,
            max_events=4000,
            seed=23,
        )
        traj = ek.run(cfg)
        init_rng = np.random.default_rng(np.random.SeedSequence(entropy=23, spawn_key=(0,)))
        e0 = float(ek.Exponential(0.5).sample(init_rng, 80).sum()) + 40 * 1.0
        assert traj.final_state.size == 80
        assert traj.events_applied == 4000
        assert ek.total_energy(traj.final_state, tt) == pytest.approx(e0, rel=1e-9)
        # both event kinds actually fired: type counts moved off the start
        assert traj.final_state.type_counts(2).tolist() != [40, 40]

    def test_channel_selection_follows_weights(self):
        # at high energy both outputs are feasible with weights 1:3; at low
        # energy only the cheap output survives
        tt = ek.TypeTable(np.array([0.0, 2.0]))
        k = ek.UniformKernel([(1, 1, 1.0), (2, 2, 3.0)])
        rng = np.random.default_rng(31)
        n = 4000
        picks = sum(
            k.sample_outcome(1, 5.0, 1, 5.0, tt, rng)[0] == 2 for _ in range(n)
        )
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(picks - 0.75 * n) <= 3 * sigma
        assert all(
            k.sample_outcome(1, 0.5, 1, 0.5, tt, rng)[0] == 1 for _ in range(200)
        )

    def test_error_context_on_bad_rate(self):
        tt = ek.TypeTable(np.array([0.0]))
        rate = ek.CallableRate(lambda t, tp: -np.ones(np.broadcast_shapes(np.shape(t), np.shape(tp)) or (1,)))
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        cfg = ek.SimulatorConfig(net, ek.TypeCountsInitial((5,), (1.0,)), t_end=1.0, seed=1)
        with pytest.raises((ek.SimulationError, ek.ValidationError)):
            ek.run(cfg)

    def test_snapshot_time_validation(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net, ek.TypeCountsInitial((5,), (1.0,)), t_end=1.0, snapshot_times=(2.0,)
        )
        with pytest.raises(ek.ValidationError):
            ek.run(cfg)


class TestRateBookkeeping:
    def test_incremental_row_rates_match_fresh_recompute(self):
        # energy-dependent rates force the incremental update path on every
        # event; the cached row sums must track a from-scratch evaluation
        from enerkin.simulate import _Engine

        tt = ek.TypeTable(np.array([0.0, 0.4]))
        rate = ek.SumDecayRate(1.0, 0.3)
        kernel = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])
        net = ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)])),
                ek.BinaryChannel((1, 2), rate, kernel),
                ek.BinaryChannel((2, 2), rate, ek.UniformKernel([(2, 2, 1.0)])),
            ],
            unary=[ek.UnaryChannel(2, 1, ek.PowerGapRate(0.5, 1.0, 0.0))],
        )
        rng = np.random.default_rng(3)
        sys0 = ek.ParticleSystem(
            rng.integers(1, 3, 60), rng.exponential(1.0, 60)
        )
        engine = _Engine(sys0, net)
        for _ in range(2000):
            _, event = engine.next_event(rng)
            engine.apply(event, rng)
        cached_rows = engine.row_rate.copy()
        cached_unary = engine.unary_rate.copy()
        engine.refresh()
        np.testing.assert_allclose(cached_rows, engine.row_rate, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cached_unary, engine.unary_rate, rtol=1e-12)

    def test_constant_rate_shortcut_matches_general_path(self):
        # the type-lookup fast path must agree with the generic evaluation
        from enerkin.simulate import _Engine

        tt = ek.TypeTable(np.array([0.0, 0.4]))

        def nets(rate_cls):
            return ek.ReactionNetwork(
                tt,
                binary=[
                    ek.BinaryChannel((1, 1), rate_cls(2.0), ek.UniformKernel([(1, 1, 1.0)])),
                    ek.BinaryChannel((1, 2), rate_cls(0.5), ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])),
                ],
            )

        wrapped = lambda c: ek.CallableRate(
            lambda t, tp, c=c: np.full(np.broadcast_shapes(np.shape(t), np.shape(tp)), c)
            if np.broadcast_shapes(np.shape(t), np.shape(tp))
            else c
        )
        rng = np.random.default_rng(5)
        sys0 = ek.ParticleSystem(rng.integers(1, 3, 40), rng.exponential(1.0, 40))
        fast = _Engine(sys0, nets(ek.ConstantRate))
        slow = _Engine(sys0, nets(wrapped))
        assert fast._const_matrix is not None and slow._const_matrix is None
        np.testing.assert_allclose(fast.row_rate, slow.row_rate, rtol=1e-12)
        for i in (0, 7, 39):
            np.testing.assert_allclose(
                fast._pair_column(i), slow._pair_column(i), rtol=1e-12
            )


class TestInitialConditions:
    def test_counts_with_fixed_energy(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(net, ek.TypeCountsInitial((10,), (1.5,)), t_end=0.0, seed=0)
        traj = ek.run(cfg)
        assert np.all(traj.final_state.kinetic_energies == 1.5)

    def test_mixture_counts_and_energies(self, unary_two_type_network):
        cfg = ek.SimulatorConfig(
            unary_two_type_network,
            ek.MixtureInitial(4000, (0.25, 0.75), (ek.Exponential(1.0), 0.5)),
            t_end=0.0,
            seed=1,
        )
        st = ek.run(cfg).final_state
        counts = st.type_counts(2)
        assert counts.sum() == 4000
        assert abs(counts[0] - 1000) < 4 * np.sqrt(4000 * 0.25 * 0.75)
        assert np.all(st.kinetic_energies[st.type_ids == 2] == 0.5)

    def test_mixture_probability_validation(self, unary_two_type_network):
        with pytest.raises(ek.ValidationError):
            cfg = ek.SimulatorConfig(
                unary_two_type_network,
                ek.MixtureInitial(10, (0.5, 0.2), (1.0, 1.0)),
                t_end=0.0,
            )
            ek.run(cfg)


class TestEnsemble:
    def test_single_replica_matches_run(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net, ek.TypeCountsInitial((20,), (ek.Exponential(1.0),)), t_end=2.0, seed=9
        )
        solo = ek.run(cfg)
        ens = ek.run_ensemble(cfg)
        assert len(ens) == 1
        assert np.array_equal(
            solo.final_state.kinetic_energies, ens[0].final_state.kinetic_energies
        )

    def test_same_master_seed_identical_ensemble(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((20,), (ek.Exponential(1.0),)),
            t_end=2.0,
            seed=9,
            replicas=4,
        )
        a = ek.run_ensemble(cfg)
        b = ek.run_ensemble(cfg)
        for ta, tb in zip(a, b):
            assert np.array_equal(
                ta.final_state.kinetic_energies, tb.final_state.kinetic_energies
            )

    def test_replicas_are_decorrelated(self):
        net = uniform_net()
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((20,), (ek.Exponential(1.0),)),
            t_end=2.0,
            seed=9,
            replicas=3,
        )
        ens = ek.run_ensemble(cfg)
        assert not np.array_equal(
            ens[0].final_state.kinetic_energies, ens[1].final_state.kinetic_energies
        )

    def test_mean_histogram_variance_shrinks_with_replicas(self):
        # sample-variance oracle: variance of group means of size R is ~ var/R
        net = uniform_net()
        edges = np.linspace(0, 6, 7)
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((50,), (ek.Exponential(1.0),)),
            t_end=4.0,
            seed=13,
            replicas=32,
            histogram_edges=edges,
        )
        ens = ek.run_ensemble(cfg)
        hists = np.stack([ek.empirical_histogram(t.final_state, 1, edges) for t in ens])
        var_single = hists.var(axis=0, ddof=1).mean()
        groups = hists.reshape(8, 4, -1).mean(axis=1)
        var_grouped = groups.var(axis=0, ddof=1).mean()
        ratio = var_single / var_grouped
        assert 2.0 < ratio < 8.0  # ideal 4, wide band for sampling noise
