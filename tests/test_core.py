import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enerkin as ek
from conftest import SplitKernel
from enerkin import scenario
from enerkin.core import _Record


def make_system(pairs):
    return ek.ParticleSystem.from_particles(pairs)


class TestTypeTable:
    def test_basic(self):
        tt = ek.TypeTable(np.array([0.0, 1.5]), labels=("a", "b"))
        assert tt.count == 2
        assert tt.internal_energy(2) == 1.5

    def test_rejects_negative_internal_energy(self):
        with pytest.raises(ek.ValidationError):
            ek.TypeTable(np.array([-0.1]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ek.ValidationError):
            ek.TypeTable(np.array([np.inf]))

    def test_unknown_id_names_index(self):
        tt = ek.TypeTable(np.array([0.0]))
        with pytest.raises(ek.UnknownTypeError, match="index 1"):
            tt.check_ids(np.array([1, 7]))


class TestTotalEnergy:
    def test_zero_internal(self, one_type_table):
        sys0 = make_system([(1, 0.5), (1, 1.5)])
        assert ek.total_energy(sys0, one_type_table) == 2.0

    def test_single_particle_internal_only(self):
        tt = ek.TypeTable(np.array([0.0, 3.0]))
        sys0 = make_system([(2, 0.0)])
        assert ek.total_energy(sys0, tt) == 3.0

    def test_matches_left_to_right_oracle(self):
        rng = np.random.default_rng(0)
        tt = ek.TypeTable(rng.uniform(0, 2, size=3))
        tids = rng.integers(1, 4, size=100)
        kin = rng.exponential(1.0, size=100)
        sys0 = ek.ParticleSystem(tids, kin)
        # independent plain left-to-right accumulation
        expected = 0.0
        for v, t in zip(tids, kin):
            expected += tt.internal_energies[v - 1] + t
        got = ek.total_energy(sys0, tt)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_unknown_type_faults(self, one_type_table):
        sys0 = make_system([(1, 0.5), (2, 0.1)])
        with pytest.raises(ek.UnknownTypeError):
            ek.total_energy(sys0, one_type_table)


avail = ek.available_kinetic_energy


def fixed_split_network(tt, pair, outputs, split, unary=()):
    """One binary channel whose kernel always gives the first output ``split(e)``."""
    kernel = SplitKernel(
        outputs,
        split_pdf_fn=lambda a, b, e, u: np.zeros(np.shape(u)),
        split_sample_fn=lambda a, b, e, rng: split(e),
    )
    return ek.ReactionNetwork(tt, [ek.BinaryChannel(pair, ek.ConstantRate(1.0), kernel)], unary)


def unary_network(tt, *pairs):
    return ek.ReactionNetwork(
        tt, unary=[ek.UnaryChannel(a, b, ek.ConstantUnaryRate(1.0)) for a, b in pairs]
    )


def execute(system, event, net, seed=0):
    return ek.execute_event(system, event, net, np.random.default_rng(seed))


class TestCollisionFeasible:
    def test_zero_internal_always(self, one_type_table):
        assert avail(2.0, (1, 1), (1, 1), one_type_table) >= 0.0

    def test_insufficient_energy(self):
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        assert avail(0.4 + 0.6, (1, 1), (2, 2), tt) < 0.0

    def test_boundary_equality_is_feasible(self):
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        assert avail(1.0 + 1.0, (1, 1), (2, 2), tt) == 0.0

    def test_identity_channel_always_feasible(self):
        # the internal-energy difference of a type-preserving change is an exact 0
        tt = ek.TypeTable(np.array([0.3, 2.0]))
        rng = np.random.default_rng(1)
        for _ in range(50):
            v, vp = (int(x) for x in rng.integers(1, 3, size=2))
            t, tp = rng.exponential(1.0, size=2)
            assert avail(t + tp, (v, vp), (v, vp), tt) == t + tp
            assert avail(t + tp, (v, vp), (vp, v), tt) == t + tp


class TestApplyCollision:
    def test_energy_arithmetic(self, one_type_table):
        sys0 = make_system([(1, 2.0), (1, 3.0)])
        net = fixed_split_network(one_type_table, (1, 1), [(1, 1, 1.0)], lambda e: 1.5)
        out, applied = execute(sys0, ek.CollisionEvent(0, 1), net)
        assert applied
        assert out.multiset_equal(make_system([(1, 1.5), (1, 3.5)]))

    def test_full_energy_to_first(self, one_type_table):
        sys0 = make_system([(1, 2.0), (1, 3.0)])
        net = fixed_split_network(one_type_table, (1, 1), [(1, 1, 1.0)], lambda e: e)
        out, _ = execute(sys0, ek.CollisionEvent(0, 1), net)
        assert out.kinetic_energies.tolist() == [5.0, 0.0]

    def test_conservation_over_random_outcomes(self):
        # type-changing outputs, nonzero internal energies, collisions and conversions
        rng = np.random.default_rng(7)
        tt = ek.TypeTable(np.array([0.0, 0.7, 1.3]))
        outs = [(a, b, 1.0) for a in (1, 2, 3) for b in (1, 2, 3)]
        net = ek.ReactionNetwork(
            tt,
            [
                ek.BinaryChannel((v, w), ek.ConstantRate(1.0), ek.UniformKernel(outs))
                for v in (1, 2, 3)
                for w in (1, 2, 3)
                if v <= w
            ],
            [ek.UnaryChannel(a, b, ek.ConstantUnaryRate(1.0)) for a in (1, 2, 3) for b in (1, 2, 3) if a != b],
        )
        state = ek.ParticleSystem(rng.integers(1, 4, size=20), rng.exponential(2.0, size=20))
        e0 = ek.total_energy(state, tt)
        changed = 0
        for _ in range(10_000):
            if rng.uniform() < 0.8:
                i, j = (int(x) for x in rng.choice(20, size=2, replace=False))
                event = ek.CollisionEvent(i, j)
            else:
                i, target = int(rng.integers(20)), int(rng.integers(1, 4))
                v = int(state.type_ids[i])
                if target == v or avail(state.kinetic_energies[i], (v,), (target,), tt) < 0:
                    continue
                event = ek.UnaryEvent(i, target)
            before = state.type_ids.copy()
            state, _ = ek.execute_event(state, event, net, rng)
            changed += int(np.any(state.type_ids != before))
        assert state.size == 20
        assert changed > 1000
        assert abs(ek.total_energy(state, tt) - e0) <= 1e-9 * e0

    def test_infeasible_outcome_fizzles(self):
        tt = ek.TypeTable(np.array([0.0, 5.0]))
        sys0 = make_system([(1, 1.0), (1, 1.0)])
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), ek.UniformKernel([(2, 2, 1.0)]))]
        )
        out, applied = execute(sys0, ek.CollisionEvent(0, 1), net)
        assert not applied
        assert out.multiset_equal(sys0)

    def test_out_of_range_split_faults(self, one_type_table):
        sys0 = make_system([(1, 1.0), (1, 1.0)])
        net = fixed_split_network(one_type_table, (1, 1), [(1, 1, 1.0)], lambda e: 2.5)
        fault = "split 2.5 of output OutputPair(first=1, second=1, weight=1.0) outside [0, 2.0]"
        with pytest.raises(ek.InfeasibleReactionError, match=re.escape(fault)):
            execute(sys0, ek.CollisionEvent(0, 1), net)

    def test_same_index_faults(self, one_type_network):
        sys0 = make_system([(1, 1.0), (1, 1.0)])
        with pytest.raises(ek.ValidationError):
            execute(sys0, ek.CollisionEvent(1, 1), one_type_network)

    def test_reverse_collision_restores_state(self):
        tt = ek.TypeTable(np.array([0.0, 0.5]))
        there = avail(2.0 + 1.0, (1, 2), (2, 2), tt)
        assert there == 2.5
        # putting the original types back restores the original kinetic energy
        assert avail(there, (2, 2), (1, 2), tt) == pytest.approx(3.0, rel=1e-15)


class TestApplyUnary:
    def test_downhill_gains_kinetic_energy(self):
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        out, applied = execute(make_system([(2, 0.3)]), ek.UnaryEvent(0, 1), unary_network(tt, (2, 1)))
        assert applied
        assert out.type_ids[0] == 1
        assert out.kinetic_energies[0] == pytest.approx(1.3)

    def test_uphill_blocked(self):
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        with pytest.raises(ek.InfeasibleReactionError):
            execute(make_system([(1, 0.5)]), ek.UnaryEvent(0, 2), unary_network(tt, (1, 2)))

    def test_uphill_boundary(self):
        tt = ek.TypeTable(np.array([0.0, 1.0]))
        out, _ = execute(make_system([(1, 1.0)]), ek.UnaryEvent(0, 2), unary_network(tt, (1, 2)))
        assert out.type_ids[0] == 2
        assert out.kinetic_energies[0] == 0.0

    def test_conserves_total_energy(self):
        tt = ek.TypeTable(np.array([0.0, 1.0, 2.5]))
        sys0 = make_system([(3, 0.4), (1, 5.0)])
        e0 = ek.total_energy(sys0, tt)
        out, _ = execute(sys0, ek.UnaryEvent(0, 1), unary_network(tt, (3, 1)))
        assert ek.total_energy(out, tt) == pytest.approx(e0, rel=1e-14)


class TestExecuteEventRejects:
    def system(self):
        return make_system([(1, 3.0), (1, 3.0)])

    @pytest.mark.parametrize("event", [ek.CollisionEvent(0, 0), ek.CollisionEvent(-1, 0)])
    def test_bad_collision_indices(self, one_type_network, event):
        # both were applied before validation: (0, 0) turned 6.0 into less,
        # and -1 wrapped round to the last particle
        with pytest.raises(ek.ValidationError):
            execute(self.system(), event, one_type_network)

    @pytest.mark.parametrize(
        "event", [ek.CollisionEvent(0, 2), ek.CollisionEvent(5, 1), ek.UnaryEvent(2, 1)]
    )
    def test_out_of_range_index(self, event):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        unary = [ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0))]
        net = fixed_split_network(tt, (1, 1), [(1, 1, 1.0)], lambda e: e / 2, unary)
        with pytest.raises(ek.KineticsError):
            execute(self.system(), event, net)

    def test_unary_without_channel(self):
        tt = ek.TypeTable(np.array([0.0, 0.0]))
        with pytest.raises(ek.ValidationError, match="no unary channel"):
            execute(self.system(), ek.UnaryEvent(0, 2), unary_network(tt, (2, 1)))

    def test_infeasible_unary(self):
        tt = ek.TypeTable(np.array([0.0, 4.0]))
        with pytest.raises(ek.InfeasibleReactionError):
            execute(self.system(), ek.UnaryEvent(0, 2), unary_network(tt, (1, 2)))

    def test_evaluates_no_rate(self):
        calls = []

        def rate(t, tp):
            calls.append(1)
            return np.ones(np.broadcast_shapes(np.shape(t), np.shape(tp)))

        tt = ek.TypeTable(np.array([0.0]))
        net = ek.ReactionNetwork(
            tt, [ek.BinaryChannel((1, 1), ek.CallableRate(rate), ek.UniformKernel([(1, 1, 1.0)]))]
        )
        sys0 = ek.ParticleSystem(np.ones(50, dtype=int), np.linspace(0.1, 5.0, 50))
        out, applied = execute(sys0, ek.CollisionEvent(3, 7), net)
        assert applied and calls == []
        assert out.kinetic_energies.sum() == pytest.approx(sys0.kinetic_energies.sum(), rel=1e-15)


@given(
    t=st.floats(0.0, 1e6),
    tp=st.floats(0.0, 1e6),
    u_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_collision_conserves_energy_and_count(t, tp, u_frac):
    tt = ek.TypeTable(np.array([0.0, 0.25, 1.5]))
    outs = [(a, b, 1.0) for a in (1, 2, 3) for b in (1, 2, 3)]
    net = fixed_split_network(tt, (2, 3), outs, lambda e: u_frac * e)
    sys0 = ek.ParticleSystem(np.array([2, 3]), np.array([t, tp]))
    e0 = ek.total_energy(sys0, tt)
    out, applied = execute(sys0, ek.CollisionEvent(0, 1), net)
    assert applied and out.size == 2
    assert ek.total_energy(out, tt) == pytest.approx(e0, rel=1e-12, abs=1e-12)
    assert np.all(out.kinetic_energies >= 0)


@given(gap=st.floats(0.0, 10.0), t=st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_unary_feasibility_matches_energy_rule(gap, t):
    tt = ek.TypeTable(np.array([0.0, gap]))
    sys0 = ek.ParticleSystem(np.array([1]), np.array([t]))
    net = unary_network(tt, (1, 2))
    if t - gap >= 0:
        out, _ = execute(sys0, ek.UnaryEvent(0, 2), net)
        assert out.kinetic_energies[0] == pytest.approx(t - gap, abs=1e-12)
    else:
        with pytest.raises(ek.InfeasibleReactionError):
            execute(sys0, ek.UnaryEvent(0, 2), net)


@st.composite
def small_networks(draw):
    """2-3 types with random internal energies, uniform or canonical-gamma kernels
    with one or two outputs on every reactant pair, and random unary channels."""
    n = draw(st.integers(2, 3))
    internal = draw(st.lists(st.floats(0.0, 3.0, allow_subnormal=False), min_size=n, max_size=n))
    tt = ek.TypeTable(np.array(internal))
    type_ids = st.integers(1, n)
    dens = {v: ek.GammaDensity(draw(st.floats(0.5, 3.0)), 1.0) for v in range(1, n + 1)}
    binary = []
    for v in range(1, n + 1):
        for w in range(v, n + 1):
            if v == w:  # exchangeable slots: a mixed output needs its mirror
                a, b = draw(type_ids), draw(type_ids)
                outputs = [(a, b, 1.0)] if a == b else [(a, b, 1.0), (b, a, 1.0)]
            else:
                pairs = draw(st.lists(st.tuples(type_ids, type_ids), min_size=1, max_size=2, unique=True))
                outputs = [(a, b, draw(st.floats(0.1, 3.0))) for a, b in pairs]
            if draw(st.booleans()):
                kernel = ek.UniformKernel(outputs)
            else:
                kernel = ek.CanonicalKernel(outputs, dens)
            binary.append(ek.BinaryChannel((v, w), ek.ConstantRate(1.0), kernel))
    unary = []
    for v in range(1, n + 1):
        for w in range(1, n + 1):
            if v != w and draw(st.booleans()):
                if draw(st.booleans()):
                    rate = ek.ConstantUnaryRate(draw(st.floats(0.1, 2.0)))
                else:
                    rate = ek.PowerGapRate(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)), internal[w - 1])
                unary.append(ek.UnaryChannel(v, w, rate))
    return ek.ReactionNetwork(tt, binary, unary)


@given(
    net=small_networks(),
    particles=st.lists(
        st.tuples(st.integers(1, 3), st.floats(0.0, 5.0, allow_subnormal=False)), min_size=2, max_size=6
    ),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_events_on_random_networks_conserve_energy(net, particles, seed):
    # both outcome paths (one output, several outputs) and conversions
    n = net.types.count
    state = make_system([(min(v, n), t) for v, t in particles])
    rng = np.random.default_rng(seed)
    for _ in range(25):
        _, event = ek.sample_next_event(state, net, rng)
        if event is None:
            break
        e0 = ek.total_energy(state, net.types)
        state, _ = ek.execute_event(state, event, net, rng)
        assert abs(ek.total_energy(state, net.types) - e0) <= 1e-12 * e0
        assert np.all(state.kinetic_energies >= 0.0)


def test_multiset_equality_ignores_order():
    a = make_system([(1, 0.5), (2, 1.0)])
    b = make_system([(2, 1.0), (1, 0.5)])
    assert a.multiset_equal(b)
    assert not a.multiset_equal(make_system([(1, 0.5), (2, 1.1)]))


def _frozen_records():
    gamma = ek.GammaDensity(2.0, 1.0)
    uniform = ek.UniformKernel([(1, 1, 1.0)])
    return [
        ek.TypeTable(np.array([0.0, 1.0])),
        ek.Exponential(1.0),
        gamma,
        ek.UniformDensity(0.0, 2.0),
        ek.Shifted(gamma, 0.5),
        ek.ShiftedGamma(2.0, 1.0, 0.5),
        ek.OutputPair(1, 2),
        ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), uniform),
        ek.UnaryChannel(1, 2, ek.ConstantUnaryRate(1.0)),
        ek.CollisionEvent(0, 1),
        ek.UnaryEvent(0, 2),
        ek.TypeCountsInitial((2,), (1.0,)),
        ek.MixtureInitial(2, (1.0,), (1.0,)),
        ek.TypedDensity((gamma,)),
        scenario._Param(),
        scenario._Check(len, {}),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_record_refuses_assignment(record):
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_fields_are_the_constructor_parameters():
    # repr, == and hash read _fields, so each must list every parameter in order
    records, todo = [], [_Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "_fields" in vars(cls) and cls is not _Record:
            records.append(cls)
    assert len(records) == 26
    for cls in records:
        assert tuple(inspect.signature(cls).parameters) == cls._fields, cls.__name__
