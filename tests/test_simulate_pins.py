"""Pinned SHA-256 digests of exact simulator trajectories.

The CLI pins in ``test_cli.py`` run constant rates, the one-output uniform
and gamma canonical kernels and one-channel conversions.  These pins cover
the engine paths they miss: thinned ``sum_decay`` collisions, ``power_gap``
and ``CallableRate`` rates, a type with two unary channels, a type whose
conversions mix a constant rate with a ``power_gap`` one, a split law
given as callables (a quadratic sampler), collisions that are no-ops
because no output is feasible, a canonical pair with no common gamma rate
(the tabulated split sampler), alone and beside same-type Beta splits, a
long series of snapshots at M = 2000 between which few particles
change, and the single-event functions ``sample_next_event`` and
``execute_event``, also on an MT19937 generator.

A fixed configuration and seed give bit-identical trajectories, so a new
digest means the engine draws or applies events differently.
"""

import hashlib

import numpy as np
import pytest

import enerkin as ek
from conftest import SplitKernel


def _hash_state(h, state):
    h.update(np.ascontiguousarray(state.type_ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(state.kinetic_energies, dtype=np.float64).tobytes())
    h.update(repr(float(state.time)).encode())


def trajectory_digest(traj):
    """SHA-256 over every snapshot (time, event count, type counts, histograms,
    particle state), the final state and the event counters."""
    h = hashlib.sha256()
    for snap in traj.snapshots:
        h.update(repr((float(snap.time), int(snap.event_count))).encode())
        h.update(np.asarray(snap.type_counts, dtype=np.int64).tobytes())
        for hist in snap.histograms:
            h.update(np.asarray(hist, dtype=np.float64).tobytes())
        _hash_state(h, snap.state)
    _hash_state(h, traj.final_state)
    h.update(repr((traj.events_applied, traj.noop_events, traj.rejected_proposals)).encode())
    return h.hexdigest()


def _uniform_outputs():
    return {
        (1, 1): [(1, 1, 1.0), (2, 2, 1.0)],
        (1, 2): [(1, 2, 1.0), (2, 1, 1.0), (3, 1, 0.5), (1, 3, 0.5)],
        (2, 3): [(2, 3, 1.0)],
        (3, 3): [(3, 3, 1.0), (1, 1, 1.0)],
    }


def _three_types(binary_rate, unary_rate):
    """Three types with internal energies 0, 0.5, 1; types 1 and 3 each have two
    conversion channels, so a conversion out of them picks among its channels."""
    tt = ek.TypeTable(np.array([0.0, 0.5, 1.0]))
    scale = {(1, 1): 2.0, (1, 2): 0.5, (2, 3): 0.5, (3, 3): 3.0}
    binary = [
        ek.BinaryChannel(p, binary_rate(c), ek.UniformKernel(_uniform_outputs()[p]))
        for p, c in scale.items()
    ]
    ie = tt.internal_energies
    unary = [
        ek.UnaryChannel(v, w, unary_rate(k, float(ie[w - 1])))
        for k, (v, w) in enumerate([(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)])
    ]
    return ek.ReactionNetwork(tt, binary, unary)


def sum_decay_network():
    return _three_types(
        lambda c: ek.SumDecayRate(c, 0.4), lambda k, _: ek.ConstantUnaryRate(0.1 + 0.1 * k)
    )


def power_gap_network():
    return _three_types(
        ek.ConstantRate, lambda k, gate: ek.PowerGapRate(0.1 + 0.1 * k, 0.5 + 0.25 * k, gate)
    )


def mixed_unary_network():
    """Constant conversions on the even channels, power_gap ones on the odd: types 1
    and 3 each mix a constant channel with one whose rate depends on the energy."""
    def unary(k, gate):
        if k % 2 == 0:
            return ek.ConstantUnaryRate(0.1 + 0.1 * k)
        return ek.PowerGapRate(0.1 + 0.1 * k, 0.5 + 0.25 * k, gate)

    return _three_types(ek.ConstantRate, unary)


def callable_network():
    def inverse_product(c):
        return lambda t, tp: c / (1.0 + np.asarray(t, dtype=float) * np.asarray(tp, dtype=float))

    return _three_types(
        lambda c: ek.CallableRate(inverse_product(c), "inverse product", bound=c),
        lambda k, _: ek.ConstantUnaryRate(0.2),
    )


def _table_kernel(outputs):
    return SplitKernel(
        outputs,
        split_pdf_fn=lambda a, b, e, u: np.where((u >= 0) & (u <= e), 1.0 / e, 0.0),
        # a quadratic split law, so the sampler is not the uniform kernel's
        split_sample_fn=lambda a, b, e, rng: e * rng.random() ** 2,
    )


def table_network():
    """Two types across a gap of 0.3, callable split laws with one and two outputs."""
    tt = ek.TypeTable(np.array([0.0, 0.3]))
    return ek.ReactionNetwork(
        tt,
        [
            ek.BinaryChannel((1, 1), ek.ConstantRate(1.0), _table_kernel([(1, 1, 1.0), (2, 2, 0.5)])),
            ek.BinaryChannel((1, 2), ek.ConstantRate(0.5), _table_kernel([(1, 2, 1.0)])),
            ek.BinaryChannel((2, 2), ek.ConstantRate(1.0), _table_kernel([(2, 2, 1.0), (1, 1, 0.5)])),
        ],
    )


def gap_swap_network():
    """Two types across a unit gap whose collisions swap the pair's types: (1, 1)
    becomes (2, 2), which is infeasible below kinetic energy 2, so such
    collisions can be no-ops."""
    tt = ek.TypeTable(np.array([0.0, 1.0]))
    rate = ek.ConstantRate(1.0)
    return ek.ReactionNetwork(
        tt,
        [
            ek.BinaryChannel((1, 1), rate, ek.UniformKernel([(2, 2, 1.0)])),
            ek.BinaryChannel((1, 2), rate, ek.UniformKernel([(1, 2, 1.0)])),
            ek.BinaryChannel((2, 2), rate, ek.UniformKernel([(1, 1, 1.0)])),
        ],
    )


def mixed_canonical_network(pairs=((1, 1), (1, 2), (2, 2))):
    """Canonical kernels of Gamma(2, 1) and Exp(2) on the channels ``pairs``.  The
    (1, 2) split has no common rate, so it is drawn from the tabulated inverse
    CDF; the same-type splits are Beta draws."""
    tt = ek.TypeTable(np.array([0.0, 0.0]))
    dens = {1: ek.GammaDensity(2.0, 1.0), 2: ek.Exponential(2.0)}

    def ch(pair):
        return ek.BinaryChannel(pair, ek.ConstantRate(1.0), ek.CanonicalKernel([(*pair, 1.0)], dens))

    return ek.ReactionNetwork(tt, [ch(pair) for pair in pairs])


EXP = ek.Exponential(1.0)
CASES = {
    "sum_decay": (sum_decay_network, ek.TypeCountsInitial((20, 15, 10), (EXP, EXP, EXP))),
    "power_gap": (power_gap_network, ek.TypeCountsInitial((20, 15, 10), (EXP, EXP, EXP))),
    "callable": (callable_network, ek.TypeCountsInitial((20, 15, 10), (EXP, EXP, EXP))),
    "mixed_unary": (mixed_unary_network, ek.TypeCountsInitial((20, 15, 10), (EXP, EXP, EXP))),
    "table": (table_network, ek.TypeCountsInitial((30, 10), (EXP, EXP))),
    "gap_swap": (gap_swap_network, ek.TypeCountsInitial((30, 10), (EXP, EXP))),
    "mixed_canonical": (mixed_canonical_network, ek.TypeCountsInitial((12, 8), (EXP, EXP))),
    # the (1, 2) channel alone: only the tabulated sampler draws, through uniform()
    "mixed_cross": (
        lambda: mixed_canonical_network(((1, 2),)), ek.TypeCountsInitial((12, 8), (EXP, EXP))
    ),
}

TRAJECTORY_SHA256 = {
    "sum_decay": "86088b08c7c14495992206abcefaccb7d90236b7968d5079c5247f60d39f712a",
    "power_gap": "021e7c7c5f9dadab6220dd0472f8af77b074b9cac3c9fc86fafca084fcb72f2e",
    "callable": "a3a80b953a50d23f955288c7edca5d9b878f50d6c9d62c537eff4d2cbe6e73d9",
    "gap_swap": "5f5eb583d2a511f9b9dce6efa01645561e8968f7426f39f143fddaacc00a27c6",
    "table": "27bb456886e823be6dc1d356c9f7d95a24d097ff244e2a142a107870094562a1",
    "mixed_canonical": "8154d82df65f5acf67e1ade7bbac9001af16688da386282d7a74e4cc5425fcce",
    "mixed_cross": "40ab644abe96d86e284b9ae30cdb21edb871311cf3ecf1556e2035aa051eba8e",
    "mixed_unary": "a96f53b4d3feea317dca1e8d670604bb608e470175b5fc269c4f45df8ea632d4",
}


def _run(case):
    make, initial = CASES[case]
    cfg = ek.SimulatorConfig(
        make(), initial, t_end=1e9, snapshot_times=(0.0, 1.0, 5.0, 20.0), max_events=1500, seed=11
    )
    return ek.run(cfg)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_is_pinned(case):
    traj = _run(case)
    assert traj.event_count == 1500
    assert trajectory_digest(traj) == TRAJECTORY_SHA256[case]


def test_sum_decay_pin_covers_thinning():
    assert _run("sum_decay").rejected_proposals > 0


def test_gap_swap_pin_covers_noops():
    assert _run("gap_swap").noop_events > 0


SINGLE_EVENT_SHA256 = {
    "sum_decay": "1f15de3420c9ececf728cdff76284a664b2ffdffc57cf18dd386e909c87a63e6",
    "power_gap": "c9d864442a3a5b2932c1e9ca6674b60aa583fd9927476def00ea4c08d48c4610",
    "callable": "28406ec414098ffdd51c20541c896f450106e8f914895ca3d0f647cb0fb57359",
    "gap_swap": "2a6bc5b9f96afdf5275c2eb7b75fcdf824bfbfd9913df28b624b489efb7a95d5",
    "table": "d7a961a5fa8f2ac2f8f68bce9cf2117c7ca9a4d22c0405d77f19bc6a1c20f46b",
    "mixed_canonical": "f4ffc2dd57d2887e503a1159257f2ffbe0d152cc38aebf979080e3c1431607ef",
    "mixed_cross": "706491e512d03d98a20c4ddfb5555719e5c40ff624148e0b9ca379b116f2dfb2",
    "mixed_unary": "4546ce85677f75fb2af582f24cfdfe54c4297728ac0dd0b992642062023c45c1",
}


def single_event_digest(case, rng=None):
    """Draw events with ``sample_next_event`` and apply each with ``execute_event``,
    chaining the states: SHA-256 over every wait, event, applied flag and state."""
    h = hashlib.sha256()
    make, initial = CASES[case]
    net = make()
    rng = np.random.default_rng(23) if rng is None else rng
    counts = initial.counts
    state = ek.ParticleSystem(
        np.repeat(np.arange(1, len(counts) + 1), counts), rng.exponential(1.0, sum(counts))
    )
    for _ in range(60):
        wait, event = ek.sample_next_event(state, net, rng)
        h.update(repr((wait, event)).encode())
        state, applied = ek.execute_event(state, event, net, rng)
        state.time += wait
        h.update(repr(applied).encode())
        _hash_state(h, state)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_event_functions_are_pinned(case):
    assert single_event_digest(case) == SINGLE_EVENT_SHA256[case]


def test_single_event_functions_draw_from_the_callers_generator():
    rng = np.random.Generator(np.random.MT19937(23))
    digest = single_event_digest("sum_decay", rng)
    assert digest == "4b7e3c87104ffc42a79be2ac928c9573a850ae3fbc9780402b723c7931e940c5"


def _run_dense_snapshots():
    """2000 particles with uniform kernels and conversions, 31 snapshots about 20
    events apart (a few dozen particles change between two of them), then a
    final state some 2400 events later."""
    cfg = ek.SimulatorConfig(
        sum_decay_network(),
        ek.TypeCountsInitial((1000, 600, 400), (EXP, EXP, EXP)),
        t_end=1e9,
        snapshot_times=tuple(0.02 * k for k in range(31)),
        max_events=3000,
        seed=5,
    )
    return ek.run(cfg)


def test_dense_snapshot_run_is_pinned():
    traj = _run_dense_snapshots()
    assert len(traj.snapshots) == 31 and traj.event_count == 3000
    assert trajectory_digest(traj) == "ef5c3f3eb013eff48bb5bd3cc148fb730ba89ee5cf8314cfa995959f51fe4dbd"


def test_every_exported_state_is_the_engine_state(monkeypatch):
    from enerkin import simulate

    export = simulate._Engine.to_system
    times = []

    def checked_export(engine, time):
        state = export(engine, time)
        expected = ek.ParticleSystem(engine.tids, engine.kin, time)
        assert state.type_ids.tobytes() == expected.type_ids.tobytes()
        assert state.kinetic_energies.tobytes() == expected.kinetic_energies.tobytes()
        assert state.time == time
        times.append(time)
        return state

    monkeypatch.setattr(simulate._Engine, "to_system", checked_export)
    traj = _run_dense_snapshots()
    assert len(times) == len(traj.snapshots) + 1  # every snapshot and the final state
