import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

import enerkin as ek
from conftest import uniform_net


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
        # the bound holds for these energies: no pair sum exceeds 4
        rate = ek.CallableRate(
            lambda t, tp: np.asarray(t, dtype=float) + np.asarray(tp, dtype=float), bound=4.0
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
        rate = ek.CallableRate(lambda t, tp: np.asarray(t) - np.asarray(tp) * 0 - 10.0, bound=1.0)
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ek.ValidationError, match="negative rate"):
            ek.sample_next_event(sys0, net, np.random.default_rng(0))

    def test_unary_rate_turning_negative_faults(self):
        # the conversion rate 0.5 - U is positive at the start; a collision that
        # leaves a particle above energy 0.5 makes it negative
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        net = ek.ReactionNetwork(
            tt,
            [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(1, 1, 1.0)]))],
            [ek.UnaryChannel(1, 2, ek.CallableUnaryRate(lambda u: 0.5 - np.asarray(u)))],
        )
        cfg = ek.SimulatorConfig(net, ek.TypeCountsInitial((20, 0), (0.45, 0.0)), t_end=100.0)
        with pytest.raises(ek.SimulationError, match="negative rate"):
            ek.run(cfg)


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

    def test_snapshot_before_the_initial_time_faults(self):
        # the state at t = 5 must not be reported under the label 1.0
        init = ek.ParticleSystem(np.array([1, 1, 1]), np.array([0.1, 0.2, 0.3]), time=5.0)
        cfg = ek.SimulatorConfig(uniform_net(), init, t_end=6.0, snapshot_times=(1.0, 5.5), seed=5)
        with pytest.raises(ek.ValidationError, match=r"precedes the initial state time 5\.0") as err:
            ek.run(cfg)
        assert err.value.field == "snapshot_times"
        cfg.snapshot_times = (5.0, 5.5)
        assert [s.time for s in ek.run(cfg).snapshots] == [5.0, 5.5]

    def test_t_end_before_the_initial_time_names_its_field(self):
        init = ek.ParticleSystem(np.array([1, 1, 1]), np.array([0.1, 0.2, 0.3]), time=5.0)
        cfg = ek.SimulatorConfig(uniform_net(), init, t_end=4.0, seed=5)
        with pytest.raises(ek.ValidationError, match=r"t_end 4\.0 precedes the initial state time 5\.0") as err:
            ek.run(cfg)
        assert err.value.field == "t_end"

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

    def test_zero_event_budget_returns_initial_state(self):
        net = uniform_net()
        init = ek.ParticleSystem(np.full(10, 1), np.linspace(0.1, 1.0, 10))
        times = tuple(np.linspace(0.0, 2.0, 21))

        def cfg(budget):
            return ek.SimulatorConfig(
                net, init, t_end=10.0, snapshot_times=times, max_events=budget, seed=4
            )

        first = ek.run(cfg(1)).final_state.time  # time of the first event
        traj = ek.run(cfg(0))
        assert traj.event_count == 0
        assert traj.final_state.time == 0.0
        assert traj.final_state.multiset_equal(init)
        assert traj.snapshots and all(s.time <= first for s in traj.snapshots)
        assert all(s.state.multiset_equal(init) and s.event_count == 0 for s in traj.snapshots)

    def test_thinning_rejections_are_counted_not_events(self):
        tt = ek.TypeTable(np.array([0.0, 0.4]))
        net = ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((1, 1), ek.SumDecayRate(1.0, 0.5), ek.UniformKernel([(1, 1, 1.0)])),
                ek.BinaryChannel((1, 2), ek.SumDecayRate(1.0, 0.5), ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])),
            ],
            unary=[
                ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(0.2)),
                ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(0.2)),
            ],
        )
        cfg = ek.SimulatorConfig(
            net,
            ek.TypeCountsInitial((30, 10), (ek.Exponential(1.0), ek.Exponential(1.0))),
            t_end=1e9,
            max_events=400,
            seed=21,
        )
        traj = ek.run(cfg)
        assert traj.rejected_proposals > 0
        assert traj.event_count == traj.events_applied + traj.noop_events == 400
        again = ek.run_ensemble(cfg)[0]
        assert again.rejected_proposals == traj.rejected_proposals

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
        rate = ek.CallableRate(
            lambda t, tp: -np.ones(np.broadcast_shapes(np.shape(t), np.shape(tp)) or (1,)), bound=1.0
        )
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


class TestSelectionBookkeeping:
    @staticmethod
    def _network():
        tt = ek.TypeTable(np.array([0.0, 0.4]))
        rate = ek.SumDecayRate(1.0, 0.3)
        kernel = ek.UniformKernel([(1, 2, 1.0), (2, 1, 1.0)])
        return ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)])),
                ek.BinaryChannel((1, 2), rate, kernel),
                ek.BinaryChannel((2, 2), rate, ek.UniformKernel([(2, 2, 1.0)])),
            ],
            unary=[ek.UnaryChannel(2, 1, ek.PowerGapRate(0.5, 1.0, 0.0))],
        )

    @staticmethod
    def _chain_network():
        # the particle_chain shape: constant collisions and constant conversions
        # both ways across a gap of 1
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        rate = ek.ConstantRate(1.0)
        return ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((v, w), rate, ek.UniformKernel([(v, w, 1.0)]))
                for v, w in ((1, 1), (1, 2), (2, 2))
            ],
            unary=[
                ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
                ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0)),
            ],
        )

    @staticmethod
    def _two_gate_network(mixed=False):
        # type 1 converts at constant rates into type 2 above T = 0.4 and into
        # type 3 above T = 1.0 (mixed: into type 3 at a power_gap rate, so type 1
        # mixes a constant channel with an energy-dependent one); collisions also
        # change types
        tt = ek.TypeTable(np.array([0.0, 0.4, 1.0]))
        rate = ek.ConstantRate(1.0)
        return ek.ReactionNetwork(
            tt,
            binary=[
                ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0), (2, 2, 1.0)])),
                ek.BinaryChannel((1, 3), rate, ek.UniformKernel([(1, 3, 1.0)])),
                ek.BinaryChannel((2, 2), rate, ek.UniformKernel([(2, 2, 1.0), (1, 1, 1.0)])),
            ],
            unary=[
                ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(0.5)),
                ek.UnaryChannel(
                    1, 3, ek.PowerGapRate(0.8, 0.5, 1.0) if mixed else ek.ConstantUnaryRate(0.8)
                ),
                ek.UnaryChannel(2, 1, ek.ConstantUnaryRate(1.0)),
                ek.UnaryChannel(3, 1, ek.ConstantUnaryRate(1.0)),
            ],
        )

    @pytest.mark.parametrize("name", ["power_gap", "chain", "two_gates", "mixed"])
    def test_sum_tree_matches_fresh_unary_rates(self, name):
        # every event updates leaves along their paths; after 2000 events the
        # tree must hold exactly the fresh rates and their pairwise sums
        from enerkin.simulate import _FIRST_BLOCK, _Engine, _ReadAhead, _SumTree

        net = {
            "power_gap": self._network,
            "chain": self._chain_network,
            "two_gates": self._two_gate_network,
            "mixed": lambda: self._two_gate_network(mixed=True),
        }[name]()
        n_types = net.types.count
        rng = np.random.default_rng(3)
        sys0 = ek.ParticleSystem(rng.integers(1, n_types + 1, 60), rng.exponential(1.0, 60))
        engine = _Engine(sys0, net)
        # constant conversions are read from the engine's table, not evaluated:
        # its value is None only for the others
        values = [row[3] for table in engine.conversions for row in table.values()]
        assert {value is None for value in values} == {
            "power_gap": {True}, "mixed": {True, False}
        }.get(name, {False})
        proposals = _ReadAhead(rng, cap=_FIRST_BLOCK)  # draws only the proposals' uniforms
        for _ in range(2000):
            _, event = engine.next_event(proposals)
            engine.apply(event, rng)
        tree = engine.unary_tree
        leaves = np.array(tree.nodes[tree.size : tree.size + engine.m])
        fresh = np.array(
            [float(net.unary_rate(int(v), float(t))) for v, t in zip(engine.tids, engine.kin)]
        )
        assert np.array_equal(leaves, fresh)
        assert tree.nodes[1] == pytest.approx(fresh.sum(), rel=1e-14)  # the root
        assert tree.nodes == _SumTree(fresh).nodes
        # the member lists are a partition of the particles by current type
        for v in range(1, n_types + 1):
            members = engine.members[v]
            assert sorted(members) == np.flatnonzero(np.asarray(engine.tids) == v).tolist()
            assert all(engine.pos[i] == k for k, i in enumerate(members))
        # the channel tree, updated leaf by leaf on type changes, is the tree a
        # fresh build from the current type counts gives
        n = np.bincount(engine.tids, minlength=n_types + 1)
        majorants = np.array([
            ch.rate.bound * (n[v] * (n[v] - 1) // 2 if v == w else n[v] * n[w]) / engine.m
            for ch in net.binary
            for v, w in [ch.pair]
        ])
        assert engine.channel_tree.nodes == _SumTree(majorants).nodes

    def test_sum_tree_never_selects_a_zero_leaf(self):
        from enerkin.simulate import _SumTree

        leaves = np.array([0.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.25])
        tree = _SumTree(leaves)
        for u in np.concatenate([np.linspace(0.0, tree.nodes[1], 101), [tree.nodes[1] * (1 + 1e-15)]]):
            assert leaves[tree.find(u)] > 0.0

    def test_next_event_walks_its_trees_as_sum_tree_find(self):
        # next_event walks the channel and unary trees inline: at every pick
        # uniform it must land on the leaf _SumTree.find gives, never a zero one
        # (type-1 particles below T = 1 cannot convert)
        from enerkin.simulate import _COLLISION, _CONVERSION, _Engine, _ReadAhead

        rng = np.random.default_rng(11)
        state = ek.ParticleSystem(rng.integers(1, 3, 40), rng.exponential(1.0, 40))
        engine = _Engine(state, self._chain_network())
        lam_b, lam_u = engine.channel_tree.nodes[1], engine.unary_tree.nodes[1]
        draws = _ReadAhead(rng)
        kinds = set()
        for r in [*np.linspace(0.0, 1.0, 2001)[:-1].tolist(), float(np.nextafter(1.0, 0.0))]:
            draws.block, draws.pos = [0.5, r, 0.3, 0.6, 0.9], 0
            _, (kind, i, x) = engine.next_event(draws)
            u = r * (lam_b + lam_u)
            kinds.add(kind)
            if kind == _CONVERSION:
                assert i == engine.unary_tree.find(u - lam_b)
                assert engine.unary_tree.nodes[engine.unary_tree.size + i] > 0.0
            else:
                pair, _, _ = engine.channels[engine.channel_tree.find(u)]
                assert tuple(sorted((engine.tids[i], engine.tids[x]))) == pair
        assert kinds == {_COLLISION, _CONVERSION}

    def test_channel_pick_is_the_sum_tree_leaf_and_never_a_closed_channel(self):
        from enerkin.simulate import _pick_channel, _SumTree

        tiny = 5e-324  # the least subnormal
        below_one = float(np.nextafter(1.0, 0.0))
        for rates in ([0.5, 0.0, 1.5], [0.0, 0.7, 0.3], [1.0, 2.0, 0.0], [0.25, 1.0], [tiny, tiny, 0.0]):
            tree = _SumTree(np.array(rates))
            for r in [*np.linspace(0.0, below_one, 1001).tolist(), below_one]:
                k = _pick_channel(rates, r)
                assert rates[k] > 0.0
                assert k == tree.find(r * tree.nodes[1])
        # r * total rounds up to the subnormal total: the last open channel, not an
        # index past the end
        assert below_one * (2 * tiny) == 2 * tiny
        assert _pick_channel([tiny, tiny, 0.0], below_one) == 1

    @pytest.mark.parametrize("form", ["constant", "callable", "mixed"])
    def test_conversion_picks_among_three_channels_one_closed(self, form):
        # type 1 converts to 2 at rate 1 and to 4 at rate 3; its channel to type 3
        # needs kinetic energy 50, which no particle has, so it is closed
        from enerkin.simulate import _Engine, _ReadAhead

        def rate(w, c):  # mixed: the channel 1 -> 4 is callable, the others constant
            if form == "constant" or (form == "mixed" and w != 4):
                return ek.ConstantUnaryRate(c)
            return ek.CallableUnaryRate(lambda u: c)

        pairs = [((1, 2), 1.0), ((1, 3), 5.0), ((1, 4), 3.0), ((2, 1), 1.0), ((4, 1), 1.0)]
        net = ek.ReactionNetwork(
            ek.TypeTable(np.array([0.0, 0.0, 50.0, 0.0])),
            unary=[ek.UnaryChannel(v, w, rate(w, c)) for (v, w), c in pairs],
        )
        engine = _Engine(ek.ParticleSystem(np.ones(40, dtype=int), np.full(40, 1.0)), net)
        # type 1's table: the value of each constant rate, None for a callable one
        assert [row[3] for row in engine.conversions[1].values()] == {
            "constant": [1.0, 5.0, 3.0], "callable": [None] * 3, "mixed": [1.0, 5.0, None]
        }[form]
        rng = _ReadAhead(np.random.default_rng(7))
        picks = {2: 0, 3: 0, 4: 0}
        for _ in range(4000):
            _, event = engine.next_event(rng)
            if engine.tids[event[1]] == 1:
                picks[event[2]] += 1
            engine.apply(event, rng)
        n = picks[2] + picks[4]
        assert picks[3] == 0 and n > 1000
        # bound fixed before the run: 4 sigma of a binomial(n, 3/4) fraction
        assert abs(picks[4] / n - 0.75) < 4 * np.sqrt(0.75 * 0.25 / n)

    def test_rate_above_bound_faults(self):
        tt = ek.TypeTable(np.array([0.0]))
        rate = ek.CallableRate(
            lambda t, tp: np.asarray(t, dtype=float) + np.asarray(tp, dtype=float), bound=1.0
        )
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ek.ValidationError, match="above the declared bound"):
            ek.sample_next_event(sys0, net, np.random.default_rng(0))
        cfg = ek.SimulatorConfig(net, sys0, t_end=10.0, seed=0)
        with pytest.raises(ek.SimulationError, match=r"channel \(1, 1\)"):
            ek.run(cfg)

    def test_unbounded_callable_rate_faults(self):
        tt = ek.TypeTable(np.array([0.0]))
        rate = ek.CallableRate(lambda t, tp: np.ones(np.broadcast_shapes(np.shape(t), np.shape(tp))))
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(1, 1, 1.0)]))]
        )
        sys0 = ek.ParticleSystem(np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ek.ValidationError, match=r"channel \(1, 1\) declares no bound"):
            ek.sample_next_event(sys0, net, np.random.default_rng(0))
        with pytest.raises(ek.ValidationError, match="declares no bound"):
            ek.run(ek.SimulatorConfig(net, sys0, t_end=1.0))
        with pytest.raises(ek.ValidationError):
            ek.CallableRate(lambda t, tp: t, bound=-1.0)

    def test_sample_next_event_evaluates_few_pair_rates(self, monkeypatch):
        # at M = 10^4 a draw evaluates a handful of pair rates, not O(M^2)
        net = self._network()
        evals = []
        orig = ek.ReactionNetwork.pair_rate

        def counting(self, v, t, w, t_other):
            out = orig(self, v, t, w, t_other)
            evals.append(np.size(out))
            return out

        monkeypatch.setattr(ek.ReactionNetwork, "pair_rate", counting)
        rng = np.random.default_rng(11)
        m = 10_000
        sys0 = ek.ParticleSystem(rng.integers(1, 3, m), rng.exponential(1.0, m))
        for _ in range(20):
            _, event = ek.sample_next_event(sys0, net, rng)
            assert event is not None
        # one scalar rate per collision proposal (mean acceptance 1/1.3^2 at
        # these energies); the dense row-rate sweep evaluated 5e7 values per draw
        assert 0 < len(evals) < 200
        assert max(evals) == 1


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

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: ek.TypeCountsInitial((-5, 10), (1.0, 1.0)), "counts"),
            (lambda: ek.TypeCountsInitial((0, 0), (1.0, 1.0)), "counts"),
            (lambda: ek.TypeCountsInitial((5,), (-1.0,)), "energies"),
            (lambda: ek.TypeCountsInitial((5, 5), (1.0,)), "energies"),
            (lambda: ek.MixtureInitial(0, (1.0,), (1.0,)), "total"),
            (lambda: ek.MixtureInitial(10, (0.5, 0.2), (1.0, 1.0)), "probabilities"),
            (lambda: ek.MixtureInitial(10, (0.5, np.nan), (1.0, 1.0)), "probabilities"),
            (lambda: ek.TypeCountsInitial((5,), (np.inf,)), "energies"),
            (lambda: ek.TypeCountsInitial((5,), (np.nan,)), "energies"),
            (lambda: ek.MixtureInitial(10, (0.5, 0.5), (1.0, np.inf)), "energies"),
        ],
        ids=[
            "negative_count", "no_particle", "negative_energy", "energies_length", "total", "probabilities",
            "nan_probability", "infinite_energy", "nan_energy", "mixture_infinite_energy",
        ],
    )
    def test_initial_specs_validate_on_construction(self, make, field):
        with pytest.raises(ek.ValidationError) as exc:
            make()
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replicas", 2.5), ("replicas", True),
            ("seed", 1.5), ("seed", True),
            ("max_events", 1.5), ("max_events", True),
        ],
    )
    def test_non_integer_counts_fault_name_their_field(self, field, value):
        cfg = ek.SimulatorConfig(
            uniform_net(), ek.TypeCountsInitial((5,), (1.0,)), t_end=1.0, **{field: value}
        )
        for call in (cfg.validate, lambda: ek.run(cfg), lambda: ek.run_ensemble(cfg)):
            with pytest.raises(ek.ValidationError) as exc:
                call()
            assert exc.value.field == field

    @pytest.mark.parametrize(
        "edges", [[1.0, 0.5], [0.0, 1.0, np.inf], [np.nan, 1.0]], ids=["unordered", "inf", "nan"]
    )
    def test_bad_histogram_edges_fault_names_their_field(self, edges):
        cfg = ek.SimulatorConfig(
            uniform_net(),
            ek.TypeCountsInitial((5,), (1.0,)),
            t_end=1.0,
            histogram_edges=np.array(edges),
        )
        with pytest.raises(ek.ValidationError) as exc:
            cfg.validate()
        assert exc.value.field == "histogram_edges"


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


class TestReadAhead:
    SHAPES = ((2.0, 1.0), (1.0, 2.0), (2.0, 2.0), (0.5, 0.5))  # (0.5, 0.5): numpy's Johnk branch

    def test_beta_blocks_follow_the_beta_law(self):
        # the four shape pairs drawn in turn, a uniform between any two draws as
        # in a run: 20 000 draws each span 14 blocks, the last four at the cap
        from scipy.stats import beta, kstest

        from enerkin.simulate import _BLOCK_CAP, _ReadAhead

        src = _ReadAhead(np.random.default_rng(31))
        n = 20_000
        draws = {ab: [] for ab in self.SHAPES}
        for _ in range(n):
            for ab in self.SHAPES:
                draws[ab].append(src.beta(*ab))
                src.random()
        for (a, b), x in draws.items():
            assert src.betas[a, b][1] == _BLOCK_CAP
            assert kstest(x, beta(a, b).cdf).pvalue > 1e-3, (a, b)

    def test_serves_the_generators_draws(self):
        # random() and uniform() are the Generator's doubles in order, a scalar
        # beta(a, b) reads its block, and any other call goes to the Generator
        from enerkin.simulate import _ReadAhead

        src, ref = _ReadAhead(np.random.default_rng(4)), np.random.default_rng(4)
        got = [src.random(), src.uniform(), src.uniform(-1.0, 3.0), src.uniform(high=2.0)]
        want = [ref.random(), ref.uniform(), ref.uniform(-1.0, 3.0), ref.uniform(high=2.0)]
        assert got == want
        src, ref = _ReadAhead(np.random.default_rng(4)), np.random.default_rng(4)
        assert [src.beta(2.0, 1.0) for _ in range(5)] == ref.beta(2.0, 1.0, size=5).tolist()
        assert src.exponential(1.0) == ref.exponential(1.0)
        assert src.random(3).tolist() == ref.random(3).tolist()

    def test_one_seed_gives_one_canonical_trajectory(self, two_type_canonical_network):
        cfg = ek.SimulatorConfig(
            two_type_canonical_network,
            ek.TypeCountsInitial((30, 30), (ek.GammaDensity(2.0, 1.0), ek.Exponential(1.0))),
            t_end=1e9,
            snapshot_times=(1.0, 10.0),
            max_events=2000,
            seed=2,
        )
        a, b = ek.run(cfg), ek.run(cfg)
        assert a.event_count == 2000 and len(a.snapshots) == 2

        def states(traj):
            return [s.state for s in traj.snapshots] + [traj.final_state]

        for x, y in zip(states(a), states(b)):
            assert x.type_ids.tobytes() == y.type_ids.tobytes()
            assert x.kinetic_energies.tobytes() == y.kinetic_energies.tobytes()


# ---------------------------------------------------------------------------
# dense direct-method oracle
# ---------------------------------------------------------------------------


def _categorical(rng, weights):
    cum = np.cumsum(weights)
    u = rng.uniform(0.0, cum[-1])
    return int(np.clip(np.searchsorted(cum, u, side="right"), 0, weights.size - 1))


def dense_next_event(system, network, rng):
    """Direct method over every unordered pair and every particle's conversions.

    One exponential clock for the total rate, then a categorical pick among
    all M(M-1)/2 pair rates alpha / M and all M unary rates: O(M^2) work per
    event, kept as the reference law for the engine's selection.
    """
    tids, kin, m = system.type_ids, system.kinetic_energies, system.size
    pair = np.zeros((m, m))
    for ch in network.binary:
        v, w = ch.pair
        iv, iw = np.flatnonzero(tids == v), np.flatnonzero(tids == w)
        block = network.pair_rate(v, kin[iv][:, None], w, kin[iw][None, :])
        pair[iv[:, None], iw[None, :]] = block
        pair[iw[:, None], iv[None, :]] = np.transpose(block)
    unary = np.zeros(m)
    for v in range(1, network.types.count + 1):
        iv = tids == v
        if iv.any() and network.unary_from(v):
            unary[iv] = network.unary_rate(v, kin[iv])
    weights = np.concatenate([np.triu(pair, 1).ravel() / m, unary])
    total = weights.sum()
    if total <= 0.0:
        return np.inf, None
    wait = float(rng.exponential(1.0 / total))
    k = _categorical(rng, weights)
    if k < m * m:
        return wait, ek.CollisionEvent(k // m, k % m)
    i = k - m * m
    v = int(tids[i])
    rates = np.array([float(r) for r in network.unary_rates(v, float(kin[i]))])
    return wait, ek.UnaryEvent(i, network.unary_from(v)[_categorical(rng, rates)].target)


def _oracle_network(case):
    # three types; collisions and conversions both move particles between
    # types, and same-type collisions carry most of the total rate
    tt = ek.TypeTable(np.array([0.0, 0.5, 1.0]))
    constant = {(1, 1): 2.0, (1, 2): 0.5, (2, 3): 0.5, (3, 3): 3.0}
    if case == "sum_decay":
        rates = {p: ek.SumDecayRate(c, 0.4) for p, c in constant.items()}
    elif case == "callable":
        def inverse_product(c):
            return lambda t, tp: c / (1.0 + np.asarray(t, dtype=float) * np.asarray(tp, dtype=float))

        rates = {p: ek.CallableRate(inverse_product(c), "inverse product", bound=c) for p, c in constant.items()}
    else:
        rates = {p: ek.ConstantRate(c) for p, c in constant.items()}
    outputs = {
        (1, 1): [(1, 1, 1.0), (2, 2, 1.0)],
        (1, 2): [(1, 2, 1.0), (2, 1, 1.0), (3, 1, 0.5), (1, 3, 0.5)],
        (2, 3): [(2, 3, 1.0)],
        (3, 3): [(3, 3, 1.0), (1, 1, 1.0)],
    }
    binary = [ek.BinaryChannel(p, rates[p], ek.UniformKernel(outputs[p])) for p in constant]
    ie = tt.internal_energies
    unary = []
    for k, (v, w) in enumerate([(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)]):
        if case == "power_gap":
            rate = ek.PowerGapRate(0.1 + 0.1 * k, 0.5 + 0.25 * k, float(ie[w - 1]))
        else:
            rate = ek.ConstantUnaryRate(0.1 + 0.1 * k)
        unary.append(ek.UnaryChannel(v, w, rate))
    return ek.ReactionNetwork(tt, binary, unary)


class TestAgainstDenseOracle:
    """Same law as the dense direct method: two-sample KS after N events."""

    INIT = ek.ParticleSystem(
        np.array([1, 1, 1, 1, 2, 2, 2, 3, 3, 3]),
        np.array([2.5, 0.1, 0.7, 1.2, 0.3, 1.9, 0.05, 0.8, 3.0, 0.4]),
    )
    EVENTS, REPLICAS = 25, 300

    @staticmethod
    def _stats(state):
        kin, tids = state.kinetic_energies, state.type_ids
        return (state.time, kin[0], float(np.sum(tids == 1)), float(kin[tids == 1].sum()))

    @pytest.mark.parametrize("case", ["constant", "sum_decay", "power_gap", "callable"])
    def test_final_state_law_matches_oracle(self, case):
        net = _oracle_network(case)
        cfg = ek.SimulatorConfig(
            net, self.INIT, t_end=1e9, max_events=self.EVENTS, seed=2024, replicas=self.REPLICAS
        )
        engine = np.array([self._stats(t.final_state) for t in ek.run_ensemble(cfg)])
        rng = np.random.default_rng(4048)
        oracle = []
        for _ in range(self.REPLICAS):
            state = self.INIT.copy()
            for _ in range(self.EVENTS):
                wait, event = dense_next_event(state, net, rng)
                state, _ = ek.execute_event(state, event, net, rng)
                state.time += wait
            oracle.append(self._stats(state))
        oracle = np.array(oracle)
        names = ("time of event N", "energy of particle 0", "type-1 count", "type-1 energy")
        pvalues = {n: ks_2samp(engine[:, k], oracle[:, k]).pvalue for k, n in enumerate(names)}
        assert min(pvalues.values()) > 1e-3, pvalues

    @pytest.mark.parametrize("case", ["constant", "sum_decay", "power_gap", "callable"])
    def test_event_law_in_one_state_matches_dense_rates(self, case):
        # from one fixed state: the mean wait is 1 / (total rate), thinned
        # proposals included, and each pair and each (particle, target)
        # conversion is drawn in proportion to its dense rate
        from enerkin.simulate import _COLLISION, _FIRST_BLOCK, _Engine, _ReadAhead

        net = _oracle_network(case)
        state = self.INIT
        m, tids, kin = state.size, state.type_ids, state.kinetic_energies
        rates = {}
        for i in range(m):
            for j in range(i + 1, m):
                rates[("pair", i, j)] = float(net.pair_rate(tids[i], kin[i], tids[j], kin[j])) / m
            for ch, r in zip(net.unary_from(int(tids[i])), net.unary_rates(int(tids[i]), kin[i])):
                rates[("unary", i, ch.target)] = float(r)
        total = sum(rates.values())
        engine = _Engine(state, net)
        rng = _ReadAhead(np.random.default_rng(77), cap=_FIRST_BLOCK)
        n = 20_000
        waits = np.empty(n)
        counts = dict.fromkeys(rates, 0)
        for k in range(n):
            waits[k], (kind, i, x) = engine.next_event(rng)
            key = ("pair", *sorted((i, x))) if kind == _COLLISION else ("unary", i, x)
            counts[key] += 1
        assert abs(waits.mean() * total - 1.0) < 4.0 / np.sqrt(n)
        assert all(counts[k] == 0 for k, r in rates.items() if r == 0.0)
        live = [k for k, r in rates.items() if r > 0.0]
        expected = np.array([rates[k] for k in live]) / total * n
        assert chisquare([counts[k] for k in live], expected).pvalue > 1e-3
