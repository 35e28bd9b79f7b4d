"""Exact continuous-time simulation of the finite-particle chain.

Events are drawn with the direct method: one exponential clock for the
total rate, then a categorical pick among pair collisions and unary
conversions.  Each unordered particle pair (i, j) collides at rate
alpha(T_i, T_j) / M; the total binary rate is kept as cached per-particle
row sums that are updated incrementally (O(M) per event) and refreshed
periodically to cancel float drift.

One engine applies every event: ``run`` drives it, and ``execute_event``
applies a single validated event through the same code without building
rate caches.  Energy moves between types only through
``core.available_kinetic_energy``.

Reproducibility: replica r of a run with master seed s draws from
``numpy.random.SeedSequence(entropy=s, spawn_key=(r,))``; ``run`` is
replica 0.  Identical configurations therefore give bit-identical output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    InfeasibleReactionError,
    KineticsError,
    ParticleSystem,
    SimulationError,
    ValidationError,
    available_kinetic_energy,
)
from .densities import DensityFamily
from .reactions import ConstantRate, ReactionNetwork

__all__ = [
    "CollisionEvent",
    "UnaryEvent",
    "TypeCountsInitial",
    "MixtureInitial",
    "SimulatorConfig",
    "Snapshot",
    "Trajectory",
    "sample_next_event",
    "execute_event",
    "empirical_histogram",
    "run",
    "run_ensemble",
]


@dataclass(frozen=True)
class CollisionEvent:
    """A binary collision of particles i and j (slot order as selected)."""

    i: int
    j: int


@dataclass(frozen=True)
class UnaryEvent:
    """A type conversion of particle i into ``target``."""

    i: int
    target: int


@dataclass(frozen=True)
class TypeCountsInitial:
    """n_v particles per type; energies i.i.d. from a density or at a fixed value."""

    counts: tuple
    energies: tuple  # per type: DensityFamily or a fixed float


@dataclass(frozen=True)
class MixtureInitial:
    """``total`` particles with i.i.d. types from ``probabilities`` and per-type energies."""

    total: int
    probabilities: tuple
    energies: tuple


InitialState = Union[ParticleSystem, TypeCountsInitial, MixtureInitial]


@dataclass
class SimulatorConfig:
    network: ReactionNetwork
    initial_state: InitialState
    t_end: float
    snapshot_times: tuple = ()
    seed: int = 0
    replicas: int = 1
    max_events: int | None = None
    histogram_edges: np.ndarray | None = None
    store_states: bool = True
    rate_refresh_every: int = 4096

    def validate(self) -> None:
        if self.t_end < 0:
            raise ValidationError(f"t_end must be >= 0, got {self.t_end}")
        if self.replicas < 1:
            raise ValidationError(f"replicas must be >= 1, got {self.replicas}")
        times = tuple(float(s) for s in self.snapshot_times)
        if any(s < 0 or s > self.t_end for s in times):
            raise ValidationError(
                f"snapshot times {times} must lie within [0, {self.t_end}]"
            )
        if self.max_events is not None and self.max_events < 0:
            raise ValidationError("max_events must be >= 0")
        if self.rate_refresh_every < 1:
            raise ValidationError("rate_refresh_every must be >= 1")
        if self.histogram_edges is not None:
            edges = np.asarray(self.histogram_edges, dtype=float)
            if edges.size < 2 or np.any(np.diff(edges) <= 0):
                raise ValidationError("histogram edges must be strictly increasing")
        self.network.validate_rate_symmetry()


@dataclass
class Snapshot:
    time: float
    event_count: int
    type_counts: np.ndarray
    histograms: list
    state: ParticleSystem | None


@dataclass
class Trajectory:
    snapshots: list
    final_state: ParticleSystem
    histogram_edges: np.ndarray
    events_applied: int
    noop_events: int

    @property
    def event_count(self) -> int:
        return self.events_applied + self.noop_events


def empirical_histogram(system: ParticleSystem, type_id: int, bin_edges) -> np.ndarray:
    """Per-bin density of one type's kinetic energies, normalized by M and bin width.

    Summing (density * width) over all bins and all types gives 1 when the
    bins cover every particle of the system.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges.size < 2:
        raise ValidationError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise ValidationError("bin edges must be strictly increasing")
    sel = system.type_ids == type_id
    counts, _ = np.histogram(system.kinetic_energies[sel], bins=edges)
    return counts / (system.size * np.diff(edges))


# ---------------------------------------------------------------------------
# event engine
# ---------------------------------------------------------------------------


def _categorical(rng: np.random.Generator, weights: np.ndarray) -> int:
    cum = np.cumsum(weights)
    total = cum[-1]
    u = rng.uniform(0.0, total)
    return int(np.clip(np.searchsorted(cum, u, side="right"), 0, weights.size - 1))


class _Engine:
    """Mutable simulation state with cached per-particle rates.

    With ``track_rates=False`` no rate is cached or updated: the engine then
    only applies events, as ``execute_event`` needs.
    """

    def __init__(self, system: ParticleSystem, network: ReactionNetwork, track_rates: bool = True):
        self.net = network
        self.types = network.types
        network.types.check_ids(system.type_ids)
        self.tids = system.type_ids.copy()
        self.kin = system.kinetic_energies.copy()
        self.m = int(self.tids.size)
        self.counts = np.bincount(self.tids, minlength=self.types.count + 1)
        self.has_binary = track_rates and bool(network.binary)
        self.has_unary = track_rates and bool(network.unary)
        self.row_rate = np.zeros(self.m)
        self.unary_rate = np.zeros(self.m)
        # energy-independent rates: pair columns reduce to a type-pair lookup
        # and type-preserving events leave every row sum unchanged
        self._const_matrix = None
        if self.has_binary and all(
            isinstance(ch.rate, ConstantRate) for ch in network.binary
        ):
            crm = np.zeros((self.types.count + 1, self.types.count + 1))
            for ch in network.binary:
                v, w = ch.pair
                crm[v, w] = crm[w, v] = ch.rate.value
            self._const_matrix = crm
        self.refresh()

    def to_system(self, time: float) -> ParticleSystem:
        return ParticleSystem(self.tids.copy(), self.kin.copy(), time)

    # -- rate bookkeeping ----------------------------------------------------

    def refresh(self) -> None:
        if self.has_binary:
            self._refresh_row_rates()
        if self.has_unary:
            self._refresh_unary_rates()

    def _refresh_row_rates(self) -> None:
        if self._const_matrix is not None:
            per_type = self._const_matrix[1:, 1:] @ self.counts[1:].astype(float)
            per_type -= np.diag(self._const_matrix)[1:]
            self.row_rate = per_type[self.tids - 1]
            return
        r = np.zeros(self.m)
        for ch in self.net.binary:
            v, w = ch.pair
            idx_v = np.flatnonzero(self.tids == v)
            if idx_v.size == 0:
                continue
            idx_w = idx_v if w == v else np.flatnonzero(self.tids == w)
            if idx_w.size == 0:
                continue
            t_w = self.kin[idx_w]
            block = max(1, (1 << 22) // idx_w.size)
            for start in range(0, idx_v.size, block):
                rows = idx_v[start : start + block]
                mat = np.asarray(self.net.pair_rate(v, self.kin[rows][:, None], w, t_w[None, :]))
                if np.any(mat < 0):
                    raise ValidationError(f"negative rate from channel {ch.pair}")
                if v == w:
                    mat[np.arange(rows.size), start + np.arange(rows.size)] = 0.0
                r[rows] += mat.sum(axis=1)
                if v != w:
                    r[idx_w] += mat.sum(axis=0)
        self.row_rate = r

    def _refresh_unary_rates(self) -> None:
        u = np.zeros(self.m)
        for v in range(1, self.types.count + 1):
            if self.counts[v] == 0 or not self.net.unary_from(v):
                continue
            mask = self.tids == v
            u[mask] = self.net.unary_rate(v, self.kin[mask])
        if np.any(u < 0):
            raise ValidationError("negative rate from a unary rate function")
        self.unary_rate = u

    def _pair_column(self, i: int) -> np.ndarray:
        """alpha between particle i and every other particle (self entry 0)."""
        vi = int(self.tids[i])
        ti = float(self.kin[i])
        if self._const_matrix is not None:
            vals = self._const_matrix[vi][self.tids]
            vals[i] = 0.0
            return vals
        if self.counts[vi] == self.m:
            vals = np.asarray(self.net.pair_rate(vi, ti, vi, self.kin), dtype=float).copy()
        else:
            vals = np.zeros(self.m)
            for w in range(1, self.types.count + 1):
                if self.counts[w] == 0 or self.net.binary_channel(vi, w) is None:
                    continue
                mask = self.tids == w
                vals[mask] = self.net.pair_rate(vi, ti, w, self.kin[mask])
        if np.any(vals < 0):
            raise ValidationError("negative rate from a collision rate function")
        vals[i] = 0.0
        return vals

    def _unary_rate_of(self, i: int) -> float:
        v = int(self.tids[i])
        if not self.net.unary_from(v):
            return 0.0
        return float(self.net.unary_rate(v, self.kin[i]))

    # -- event sampling and application ---------------------------------------

    def total_rates(self) -> tuple[float, float]:
        lam_b = float(self.row_rate.sum()) / (2.0 * self.m) if self.has_binary else 0.0
        lam_u = float(self.unary_rate.sum()) if self.has_unary else 0.0
        return lam_b, lam_u

    def next_event(self, rng: np.random.Generator):
        lam_b, lam_u = self.total_rates()
        lam = lam_b + lam_u
        if lam <= 0.0:
            return np.inf, None
        wait = float(rng.exponential(1.0 / lam))
        if rng.uniform(0.0, lam) < lam_b:
            i = _categorical(rng, self.row_rate)
            col = self._pair_column(i)
            j = _categorical(rng, col)
            return wait, CollisionEvent(i, j)
        i = _categorical(rng, self.unary_rate)
        v = int(self.tids[i])
        rates = np.array([float(r) for r in self.net.unary_rates(v, float(self.kin[i]))])
        target = self.net.unary_from(v)[_categorical(rng, rates)].target
        return wait, UnaryEvent(i, target)

    def check(self, event) -> None:
        """Reject an event the engine cannot apply to the current state.

        Events drawn by ``next_event`` always pass; this guards events that
        come from outside the run loop.
        """
        if isinstance(event, CollisionEvent):
            indices = (event.i, event.j)
        elif isinstance(event, UnaryEvent):
            indices = (event.i,)
        else:
            raise ValidationError(f"unknown event {event!r}")
        for k in indices:
            if not (isinstance(k, (int, np.integer)) and 0 <= k < self.m):
                raise ValidationError(f"particle index {k!r} outside 0..{self.m - 1}")
        if isinstance(event, CollisionEvent) and event.i == event.j:
            raise ValidationError(f"collision needs two distinct particles, got i=j={event.i}")
        if isinstance(event, UnaryEvent):
            v = int(self.tids[event.i])
            if all(ch.target != event.target for ch in self.net.unary_from(v)):
                raise ValidationError(f"no unary channel {v}->{event.target}")

    def apply(self, event, rng: np.random.Generator) -> bool:
        """Apply an event in place; False when the collision fizzles (no feasible output)."""
        if isinstance(event, CollisionEvent):
            i, j = event.i, event.j
            a, b = (i, j) if self.tids[i] <= self.tids[j] else (j, i)
            va, vb = int(self.tids[a]), int(self.tids[b])
            ch = self.net.binary_channel(va, vb)
            if ch is None:
                raise ValidationError(f"no binary channel for type pair ({va}, {vb})")
            outcome = ch.kernel.sample_outcome(
                va, float(self.kin[a]), vb, float(self.kin[b]), self.types, rng
            )
            if outcome is None:
                return False
            v_out_a, u_a, v_out_b, u_b = outcome
            self._mutate((a, b), (v_out_a, v_out_b), (u_a, u_b))
            return True
        if isinstance(event, UnaryEvent):
            i = event.i
            v = int(self.tids[i])
            t_new = available_kinetic_energy(float(self.kin[i]), (v,), (event.target,), self.types)
            if t_new < 0.0:
                raise InfeasibleReactionError(
                    f"type change {v}->{event.target} needs more kinetic energy than "
                    f"particle {i} has ({float(self.kin[i])})"
                )
            self._mutate((i,), (event.target,), (t_new,))
            return True
        raise ValidationError(f"unknown event {event!r}")

    def _mutate(self, indices, new_types, new_energies) -> None:
        update_rows = self.has_binary and not (
            self._const_matrix is not None
            and all(self.tids[i] == v for i, v in zip(indices, new_types))
        )
        cols_old = [self._pair_column(i) for i in indices] if update_rows else None
        for i, v, t in zip(indices, new_types, new_energies):
            self.counts[self.tids[i]] -= 1
            self.counts[v] += 1
            self.tids[i] = v
            self.kin[i] = t
        if update_rows:
            r = self.row_rate
            cols_new = [self._pair_column(i) for i in indices]
            for old, new in zip(cols_old, cols_new):
                r += new - old
            for i, new in zip(indices, cols_new):
                r[i] = new.sum()
            np.maximum(r, 0.0, out=r)
        if self.has_unary:
            for i in indices:
                self.unary_rate[i] = self._unary_rate_of(i)


def sample_next_event(system: ParticleSystem, network: ReactionNetwork, rng):
    """Draw (waiting time, event) for the current state.

    The waiting time is exponential with the total event rate
    (1/M) * sum over unordered pairs of alpha(T_i, T_j), plus all unary
    rates; the event is picked proportionally to its rate.  Returns
    (inf, None) when the total rate vanishes.
    """
    if system.size < 1:
        raise ValidationError("need at least one particle")
    return _Engine(system, network).next_event(rng)


def execute_event(system: ParticleSystem, event, network: ReactionNetwork, rng):
    """Apply one event to a copy of ``system`` with the run loop's engine.

    The event is validated first: a collision needs two distinct particle
    indices in 0..M-1, a conversion an index in range and a unary channel
    from the particle's type to ``target`` (ValidationError otherwise); a
    conversion the particle lacks the energy for raises
    InfeasibleReactionError, and a collision with no binary channel for
    its types raises ValidationError.  No rate is evaluated.

    Returns (new system, applied flag); a fizzled collision (no feasible
    output) returns an unchanged copy with applied=False.
    """
    engine = _Engine(system, network, track_rates=False)
    engine.check(event)
    applied = engine.apply(event, rng)
    return engine.to_system(system.time), applied


# ---------------------------------------------------------------------------
# trajectory runner
# ---------------------------------------------------------------------------


def _sample_energy(spec, size: int, rng) -> np.ndarray:
    if isinstance(spec, DensityFamily):
        return np.asarray(spec.sample(rng, size=size), dtype=float)
    value = float(spec)
    if value < 0:
        raise ValidationError(f"fixed initial energy must be >= 0, got {value}")
    return np.full(size, value)


def _materialize_initial(initial: InitialState, n_types: int, rng) -> ParticleSystem:
    if isinstance(initial, ParticleSystem):
        return initial.copy()
    if isinstance(initial, TypeCountsInitial):
        counts = [int(c) for c in initial.counts]
        if len(counts) != n_types or len(initial.energies) != n_types:
            raise ValidationError(
                f"initial spec needs counts and energies for all {n_types} types"
            )
        if sum(counts) < 1:
            raise ValidationError("initial state needs at least one particle")
        tids = np.repeat(np.arange(1, n_types + 1), counts)
        kin = np.concatenate(
            [
                _sample_energy(spec, c, rng) if c else np.empty(0)
                for spec, c in zip(initial.energies, counts)
            ]
        )
        return ParticleSystem(tids, kin, 0.0)
    if isinstance(initial, MixtureInitial):
        p = np.asarray(initial.probabilities, dtype=float)
        if p.size != n_types or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError("mixture probabilities must be a distribution over types")
        if initial.total < 1:
            raise ValidationError("mixture initial needs at least one particle")
        tids = rng.choice(np.arange(1, n_types + 1), size=initial.total, p=p)
        kin = np.empty(initial.total)
        for v in range(1, n_types + 1):
            mask = tids == v
            if mask.any():
                kin[mask] = _sample_energy(initial.energies[v - 1], int(mask.sum()), rng)
        return ParticleSystem(tids.astype(np.int64), kin, 0.0)
    raise ValidationError(f"unsupported initial state spec {initial!r}")


def _default_edges(system: ParticleSystem) -> np.ndarray:
    mean = float(system.kinetic_energies.mean()) if system.size else 1.0
    hi = max(1.0, 8.0 * mean)
    return np.linspace(0.0, hi, 33)


def _make_snapshot(engine: _Engine, time: float, event_count: int, edges, store: bool):
    state = engine.to_system(time)
    hists = [
        empirical_histogram(state, v, edges) for v in range(1, engine.types.count + 1)
    ]
    return Snapshot(
        time=time,
        event_count=event_count,
        type_counts=state.type_counts(engine.types.count),
        histograms=hists,
        state=state if store else None,
    )


def run(config: SimulatorConfig, _seed_seq=None) -> Trajectory:
    """Run a single trajectory (replica 0 of the configured seed)."""
    config.validate()
    seed_seq = _seed_seq or np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
    rng = np.random.default_rng(seed_seq)
    system = _materialize_initial(config.initial_state, config.network.types.count, rng)
    engine = _Engine(system, config.network)
    edges = (
        np.asarray(config.histogram_edges, dtype=float)
        if config.histogram_edges is not None
        else _default_edges(system)
    )
    t = float(system.time)
    if config.t_end < t:
        raise ValidationError(f"t_end {config.t_end} precedes the initial state time {t}")
    pending = deque(sorted(float(s) for s in config.snapshot_times))
    snaps: list[Snapshot] = []
    attempted = applied = noops = 0
    while True:
        try:
            wait, event = engine.next_event(rng)
        except KineticsError as exc:
            raise SimulationError(str(exc), time=t) from exc
        t_next = t + wait
        while pending and pending[0] < t_next:
            snaps.append(
                _make_snapshot(engine, pending.popleft(), attempted, edges, config.store_states)
            )
        if event is None or t_next > config.t_end:
            t = config.t_end
            break
        t = t_next
        attempted += 1
        try:
            if engine.apply(event, rng):
                applied += 1
            else:
                noops += 1
        except KineticsError as exc:
            idx = (event.i, event.j) if isinstance(event, CollisionEvent) else (event.i,)
            raise SimulationError(str(exc), time=t, indices=idx) from exc
        if attempted % config.rate_refresh_every == 0:
            engine.refresh()
        if config.max_events is not None and attempted >= config.max_events:
            # snapshot times beyond the event budget are unreachable and dropped
            while pending and pending[0] <= t:
                snaps.append(
                    _make_snapshot(engine, pending.popleft(), attempted, edges, config.store_states)
                )
            break
    return Trajectory(
        snapshots=snaps,
        final_state=engine.to_system(t),
        histogram_edges=edges,
        events_applied=applied,
        noop_events=noops,
    )


def run_ensemble(config: SimulatorConfig) -> list[Trajectory]:
    """Independent replicas, run one after another in replica order.

    Replica r draws from SeedSequence(entropy=seed, spawn_key=(r,)), so each
    replica's trajectory depends only on the master seed and r.
    """
    config.validate()
    return [
        run(config, _seed_seq=np.random.SeedSequence(entropy=config.seed, spawn_key=(r,)))
        for r in range(config.replicas)
    ]
