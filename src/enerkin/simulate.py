"""Exact continuous-time simulation of the finite-particle chain.

Each unordered pair (i, j) collides at rate alpha(T_i, T_j) / M and each
particle converts at its feasibility-gated unary rate.  Collisions are
thinned over type pairs (Lewis & Shedler 1979): channel (v, w) is proposed
at bound_vw times its pair count over M, two distinct members are drawn
uniformly, and the proposal is accepted with probability alpha / bound_vw
(always, with no rate evaluated, for constant rates); a rejected proposal
advances the clock but is no event.  Conversions come from a binary sum
tree of unary rates (Wong & Easton 1980).  Picking a collision costs O(1)
in M; picking a conversion, and updating the unary rate of a particle an
event changed, walk the sum tree in O(log M).

One engine applies every event: ``run`` drives it, and ``execute_event``
applies a single validated event through the same code without building
selection structures.  Energy moves between types only through
``core.available_kinetic_energy``, evaluated once per type combination
where the per-event path needs it.

The per-event path runs on plain Python objects.  The engine keeps each
particle's type and kinetic energy in Python lists, which become arrays
only when a state is handed out (``to_system``), and passes events as
tuples (_COLLISION, i, j) or (_CONVERSION, i, target);
``CollisionEvent``/``UnaryEvent`` are built only at the public boundary,
``sample_next_event`` and ``execute_event``.  At construction the engine
tabulates, per ordered type pair, the channel kernel's ``sample_outcome``
and, per type, the targets of its unary channels, so applying an event
looks up no channel.  Unary rates of one particle, and the energy a
conversion releases, come from the network's per-type table of I_v, gate
offsets I_v - I_w and rate objects.  For a type whose unary channels all
have a ``ConstantUnaryRate``, the engine keeps each channel's (gate
offset, value) and adds up the values of the open channels as
``ReactionNetwork.unary_rate`` does, so a constant conversion, like a
constant collision, evaluates no rate.  A collision reads its feasible
outputs, their releases and renormalized weights from the kernel's
outcome table for the reactant types, and draws an output only when
several are feasible.  A type change resets, once each, only the
channel-tree leaves of channels involving the old or the new type, from
(channel, v, w, bound) rows tabulated at construction.  Each float path
gives the value its array counterpart gives, bit for bit, and draws the
same random numbers, so the output does not depend on the representation.

Every proposal takes five uniforms.  ``run`` reads its draws ahead in
blocks: the proposal's five and every ``random()`` or ``uniform()`` of a
kernel (an output pick, a uniform or tabulated split) are the
doubles of one ``rng.random(k).tolist()`` call per block, the same doubles
in the same order as one draw at a time; a common-rate gamma split's
``beta(a, b)`` comes from a block of ``rng.beta(a, b, size=k)`` per shape
pair, which interleaves differently with the uniforms than single draws
would.  Any other draw of a kernel is the Generator's own, on the run's
bit generator.
``sample_next_event`` and ``execute_event`` draw from the caller's
Generator, and only what they use.  ``to_system`` rewrites in its arrays
only the particles that events touched since its last export, so a
snapshot costs O(changed particles) plus the copy a ``ParticleSystem``
makes.

Reproducibility: replica r of a run with master seed s draws from
``numpy.random.SeedSequence(entropy=s, spawn_key=(r,))``; ``run`` is
replica 0.  Identical configurations therefore give bit-identical output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate
from typing import Union

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .core import (
    InfeasibleReactionError,
    KineticsError,
    ParticleSystem,
    SimulationError,
    ValidationError,
    _FrozenRecord,
    _Record,
)
from .densities import DensityFamily
from .reactions import ConstantRate, ConstantUnaryRate, ReactionNetwork, _as_float

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


class CollisionEvent(_FrozenRecord):
    """A binary collision of particles i and j (slot order as selected)."""

    _fields = ("i", "j")

    def __init__(self, i: int, j: int):
        vars(self).update(i=i, j=j)


class UnaryEvent(_FrozenRecord):
    """A type conversion of particle i into ``target``."""

    _fields = ("i", "target")

    def __init__(self, i: int, target: int):
        vars(self).update(i=i, target=target)


def _check_energies(energies, n_types: int) -> None:
    if len(energies) != n_types:
        raise ValidationError(
            f"needs {n_types} per-type energies, got {len(energies)}", field="energies"
        )
    for e in energies:
        if not isinstance(e, DensityFamily) and not float(e) >= 0:
            raise ValidationError(f"fixed initial energy must be >= 0, got {e}", field="energies")


class TypeCountsInitial(_FrozenRecord):
    """n_v particles per type; energies i.i.d. from a density or at a fixed value."""

    _fields = ("counts", "energies")

    def __init__(self, counts: tuple, energies: tuple):  # energies: DensityFamily or float each
        vars(self).update(counts=counts, energies=energies)
        if any(c < 0 for c in counts) or sum(counts) < 1:
            raise ValidationError(
                f"counts must be >= 0 with at least one particle, got {counts}",
                field="counts",
            )
        _check_energies(energies, len(counts))


class MixtureInitial(_FrozenRecord):
    """``total`` particles with i.i.d. types from ``probabilities`` and per-type energies."""

    _fields = ("total", "probabilities", "energies")

    def __init__(self, total: int, probabilities: tuple, energies: tuple):
        vars(self).update(total=total, probabilities=probabilities, energies=energies)
        if total < 1:
            raise ValidationError(
                f"mixture initial needs at least one particle, got {total}", field="total"
            )
        p = np.asarray(probabilities, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(
                f"mixture probabilities must be a distribution, got {probabilities}",
                field="probabilities",
            )
        _check_energies(energies, p.size)


InitialState = Union[ParticleSystem, TypeCountsInitial, MixtureInitial]


def _check_integer(value, field: str, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{field} must be an integer, got {value!r}", field=field)
    if value < low:
        raise ValidationError(f"{field} must be >= {low}, got {value}", field=field)


class SimulatorConfig(_Record):
    _fields = (
        "network", "initial_state", "t_end", "snapshot_times", "seed", "replicas", "max_events",
        "histogram_edges",
    )

    def __init__(
        self,
        network: ReactionNetwork,
        initial_state: InitialState,
        t_end: float,
        snapshot_times: tuple = (),
        seed: int = 0,
        replicas: int = 1,
        max_events: int | None = None,
        histogram_edges: np.ndarray | None = None,
    ):
        self.network = network
        self.initial_state = initial_state
        self.t_end = t_end
        self.snapshot_times = snapshot_times
        self.seed = seed
        self.replicas = replicas
        self.max_events = max_events
        self.histogram_edges = histogram_edges

    def validate(self) -> None:
        if self.t_end < 0:
            raise ValidationError(f"t_end must be >= 0, got {self.t_end}", field="t_end")
        _check_integer(self.replicas, "replicas", 1)
        _check_integer(self.seed, "seed", 0)
        times = tuple(float(s) for s in self.snapshot_times)
        if any(s < 0 or s > self.t_end for s in times):
            raise ValidationError(
                f"snapshot times {times} must lie within [0, {self.t_end}]", field="snapshot_times"
            )
        if self.max_events is not None:
            _check_integer(self.max_events, "max_events", 0)
        if self.histogram_edges is not None:
            edges = np.asarray(self.histogram_edges, dtype=float)
            if edges.size < 2 or np.any(np.diff(edges) <= 0):
                raise ValidationError(
                    "histogram edges must be strictly increasing", field="histogram_edges"
                )


class Snapshot(_Record):
    """The chain at a requested time: events attempted so far, per-type counts
    and histograms, and a copy of the particle state."""

    _fields = ("time", "event_count", "type_counts", "histograms", "state")

    def __init__(
        self,
        time: float,
        event_count: int,
        type_counts: np.ndarray,
        histograms: list,
        state: ParticleSystem,
    ):
        self.time = time
        self.event_count = event_count
        self.type_counts = type_counts
        self.histograms = histograms
        self.state = state


class Trajectory(_Record):
    _fields = (
        "snapshots", "final_state", "histogram_edges", "events_applied", "noop_events",
        "rejected_proposals",
    )

    def __init__(
        self,
        snapshots: list,
        final_state: ParticleSystem,
        histogram_edges: np.ndarray,
        events_applied: int,
        noop_events: int,
        rejected_proposals: int = 0,  # thinned collision proposals; not events
    ):
        self.snapshots = snapshots
        self.final_state = final_state
        self.histogram_edges = histogram_edges
        self.events_applied = events_applied
        self.noop_events = noop_events
        self.rejected_proposals = rejected_proposals

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


class _SumTree:
    """Rates in an array-backed binary sum tree (leaf i at ``size + i``).

    An update recomputes each node on the path to the root from its two
    children, so the root is always the same pairwise sum of the leaves.
    """

    def __init__(self, leaves: np.ndarray):
        self.size = size = 1 << max(0, leaves.size - 1).bit_length()
        nodes = np.zeros(2 * size)
        nodes[size : size + leaves.size] = leaves
        while size > 1:
            nodes[size // 2 : size] = nodes[size : 2 * size : 2] + nodes[size + 1 : 2 * size : 2]
            size //= 2
        self.nodes = nodes.tolist()

    def update(self, i: int, value: float) -> None:
        nodes, k = self.nodes, self.size + i
        if nodes[k] != value:
            nodes[k] = value
            while k > 1:
                k >>= 1
                nodes[k] = nodes[2 * k] + nodes[2 * k + 1]

    def find(self, u: float) -> int:
        """Leaf whose cumulative interval holds u in [0, root); never a zero leaf."""
        nodes, k, size = self.nodes, 1, self.size
        while k < size:
            k *= 2
            left = nodes[k]
            if not (left > 0.0 and (u < left or nodes[k + 1] <= 0.0)):
                u -= left
                k += 1
        return k - size


def _pick_channel(rates: list, r: float) -> int:
    """The channel whose cumulative rate interval holds r * total, for r in [0, 1):
    never a closed (zero-rate) channel, and the last open one when r * total
    rounds up to a subnormal total.  For up to three channels it is the leaf a
    ``_SumTree`` of the rates finds."""
    cumulative = list(accumulate(rates))
    k = bisect_right(cumulative, r * cumulative[-1])
    return k if k < len(cumulative) else bisect_left(cumulative, cumulative[-1])


_FIRST_BLOCK, _BLOCK_CAP = 5, 4096  # draws in the first and the largest read-ahead block
_PATCH_SHARE = 0.2  # to_system rebuilds its arrays when more than this share of particles was touched


class _ReadAhead(Generator):
    """A Generator over ``rng``'s bit generator whose scalar draws are read ahead
    in blocks of k draws, k doubling from ``_FIRST_BLOCK`` (one proposal's
    uniforms) up to ``cap``.

    ``random()`` and ``uniform()`` serve the doubles of ``rng.random()`` from
    blocks of one ``random(k).tolist()`` call each, in draw order, so they
    return what ``rng`` would.  ``beta(a, b)`` serves ``rng.beta(a, b)`` from
    blocks of one ``beta(a, b, size=k)`` call per shape pair.  Every other
    method, and any call with a size, is the Generator's own.  The unread
    tails of the last blocks are dropped.
    """

    __slots__ = ("block", "pos", "size", "cap", "betas")

    def __init__(self, rng: Generator, cap: int = _BLOCK_CAP):
        super().__init__(rng.bit_generator)
        self.block, self.pos, self.size, self.cap = [], 0, _FIRST_BLOCK, cap
        self.betas = {}  # by shape pair (a, b): [iterator over the unread block, next block size]

    def _refill(self) -> None:
        """Follow the unread tail with the next block."""
        self.block = self.block[self.pos :] + Generator.random(self, self.size).tolist()
        self.pos = 0
        self.size = min(2 * self.size, self.cap)

    def random(self, size=None, dtype=None, out=None):
        # None checks only: looking up np.float64 on every scalar draw costs as much again
        if size is not None or dtype is not None or out is not None:
            return Generator.random(self, size, np.float64 if dtype is None else dtype, out)
        if self.pos == len(self.block):
            self._refill()
        self.pos += 1
        return self.block[self.pos - 1]

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None and np.ndim(low) == np.ndim(high) == 0:
            span = float(high) - float(low)
            if math.isfinite(span):  # the Generator raises on the others
                return float(low) + span * self.random()  # as the Generator computes it
        return Generator.uniform(self, low, high, size)

    def beta(self, a, b, size=None):
        if size is not None:
            return Generator.beta(self, a, b, size)
        entry = self.betas.get((a, b))
        if entry is None:
            entry = self.betas[a, b] = [iter(()), _FIRST_BLOCK]
        x = next(entry[0], None)
        if x is None:
            k = entry[1]
            entry[0], entry[1] = iter(Generator.beta(self, a, b, k).tolist()), min(2 * k, self.cap)
            x = next(entry[0])
        return x

    def proposal(self) -> list:
        """The next five doubles, one proposal's uniforms."""
        end = self.pos + 5
        if end > len(self.block):
            self._refill()
            end = 5
        start, self.pos = self.pos, end
        return self.block[start:end]


_COLLISION, _CONVERSION = 0, 1  # the kind of an engine event tuple


class _Engine:
    """Mutable chain state on Python lists: ``tids[i]`` and ``kin[i]`` are particle
    i's type and kinetic energy, and an event is a tuple (_COLLISION, i, j) or
    (_CONVERSION, i, target).  Selection keeps a member list per type
    (swap-remove, so a type change is O(1)), the channels' rate bounds and a
    sum tree of unary rates.  With ``track_rates=False`` none is built and no
    rate is evaluated: the engine then only applies events, as
    ``execute_event`` needs.

    ``to_system`` keeps the arrays of its last export and the indices that
    events touched since; it patches only those, or rebuilds the arrays
    when more than ``_PATCH_SHARE`` of the particles were touched.
    """

    def __init__(self, system: ParticleSystem, network: ReactionNetwork, track_rates: bool = True):
        self.net = network
        self.types = types = network.types
        types.check_ids(system.type_ids)
        self.tids = system.type_ids.tolist()
        self.kin = system.kinetic_energies.tolist()
        self.m = len(self.tids)
        self.exported = (system.type_ids.copy(), system.kinetic_energies.copy())
        self.touched = set()
        self.tracking = track_rates
        self.rejected = 0
        n = types.count + 1
        # by ordered type pair (v <= w): the channel kernel's sample_outcome, or None
        self.samplers = [[None] * n for _ in range(n)]
        for ch in network.binary:
            v, w = ch.pair
            self.samplers[v][w] = ch.kernel.sample_outcome
        # by type: the targets of its unary channels, in channel order (empty: none)
        self.targets = [[ch.target for ch in network.unary_from(v)] for v in range(n)]
        if not track_rates:
            return
        self.channels = []
        for ch in network.binary:
            if getattr(ch.rate, "bound", None) is None:
                raise ValidationError(
                    f"collision rate {ch.rate!r} of channel {ch.pair} declares no bound, "
                    "which thinning needs: use CallableRate(fn, name, bound=...)"
                )
            self.channels.append((ch.pair, ch.rate.bound, isinstance(ch.rate, ConstantRate)))
        # by type, when every unary channel's rate is exactly a ConstantUnaryRate (a
        # subclass may override __call__): each channel's (gate offset, value), in
        # channel order; None otherwise
        self.unary_consts = [None] * n
        for v, (_, chans) in network._unary_table.items():
            if all(type(rate) is ConstantUnaryRate for _, rate in chans.values()):
                self.unary_consts[v] = [(gate, rate.value) for gate, rate in chans.values()]
        tids, kin = system.type_ids, system.kinetic_energies
        index = [np.flatnonzero(tids == v) for v in range(n)]
        self.members = [idx.tolist() for idx in index]
        pos = np.zeros(self.m, dtype=np.int64)
        unary = np.zeros(self.m)
        for v, idx in enumerate(index):
            pos[idx] = np.arange(idx.size)
            if idx.size and self.targets[v]:
                unary[idx] = network.unary_rate(v, kin[idx])
        if not np.all(unary >= 0):
            raise ValidationError("negative rate from a unary rate function")
        self.pos = pos.tolist()
        self.unary_tree = _SumTree(unary)
        rows = [(k, v, w, bound) for k, ((v, w), bound, _) in enumerate(self.channels)]
        self.channel_tree = _SumTree(np.zeros(len(rows)))
        self._refresh_majorants(rows)
        # by (old type, new type): the rows of the channels involving either
        self.rows_between = [
            [[r for r in rows if a in r[1:3] or b in r[1:3]] for b in range(n)] for a in range(n)
        ]

    def to_system(self, time: float) -> ParticleSystem:
        tids, kin = self.exported
        touched = self.touched
        if len(touched) > _PATCH_SHARE * self.m:
            tids, kin = self.exported = np.array(self.tids, dtype=np.int64), np.array(self.kin)
        elif touched:
            idx = list(touched)
            tids[idx] = [self.tids[i] for i in idx]
            kin[idx] = [self.kin[i] for i in idx]
        touched.clear()
        return ParticleSystem(tids, kin, time)

    def _refresh_majorants(self, rows) -> None:
        """Set the channel-tree leaf of each (channel, v, w, bound) row to the channel's
        majorant rate: bound_vw * (pairs of types v, w) / M."""
        members, m, update = self.members, self.m, self.channel_tree.update
        for k, v, w, bound in rows:
            n_v = len(members[v])
            update(k, bound * (n_v * (n_v - 1) // 2 if v == w else n_v * len(members[w])) / m)

    def next_event(self, rng, horizon: float = np.inf):
        """(waiting time, event) of the next accepted event; thinned proposals add
        their waits and count in ``rejected``.  Returns (inf, None) when the total
        rate vanishes and (wait, None) once the wait passes ``horizon``.

        ``rng`` is a ``_ReadAhead`` source."""
        lam_b, lam_u = self.channel_tree.nodes[1], self.unary_tree.nodes[1]
        lam = lam_b + lam_u
        if lam <= 0.0:
            return np.inf, None
        wait = 0.0
        while True:
            # one draw of every uniform a proposal may need
            r_wait, r_pick, r_i, r_j, r_accept = rng.proposal()
            wait -= math.log1p(-r_wait) / lam
            if wait > horizon:
                return wait, None
            u = r_pick * lam
            if u >= lam_b and lam_u > 0.0:
                i = self.unary_tree.find(u - lam_b)
                v = self.tids[i]
                targets, k = self.targets[v], 0
                if len(targets) > 1:
                    t, consts = self.kin[i], self.unary_consts[v]
                    if consts is None:
                        rates = self.net.unary_rates(v, t)
                    else:  # the values unary_rates gives, bit for bit
                        rates = [value if t + gate >= 0.0 else 0.0 for gate, value in consts]
                    k = _pick_channel(rates, r_i)
                return wait, (_CONVERSION, i, targets[k])
            event = self._propose_collision(u, r_i, r_j, r_accept)
            if event is not None:
                return wait, event
            self.rejected += 1

    def _propose_collision(self, u, r_i, r_j, r_accept):
        """A uniform pair of the channel holding u, or None when thinned away."""
        (v, w), bound, constant = self.channels[self.channel_tree.find(u)]
        first = self.members[v]
        a = int(r_i * len(first))
        if v == w:
            b = int(r_j * (len(first) - 1))
            j = first[b + (b >= a)]
        else:
            second = self.members[w]
            j = second[int(r_j * len(second))]
        i = first[a]
        if constant:
            return _COLLISION, i, j
        t_i, t_j = self.kin[i], self.kin[j]
        rate = _as_float(self.net.pair_rate(v, t_i, w, t_j))
        if not 0.0 <= rate <= bound:
            raise ValidationError(
                f"{'negative rate' if rate < 0 else 'rate above the declared bound'} {rate} "
                f"of collision channel {(v, w)} (bound {bound}) at energies {t_i}, {t_j}"
            )
        return (_COLLISION, i, j) if r_accept * bound < rate else None

    def check(self, event) -> tuple:
        """The engine tuple of a ``CollisionEvent`` or ``UnaryEvent``, after rejecting
        one the engine cannot apply to the current state.

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
        if isinstance(event, CollisionEvent):
            if event.i == event.j:
                raise ValidationError(f"collision needs two distinct particles, got i=j={event.i}")
            return _COLLISION, int(event.i), int(event.j)
        v = self.tids[event.i]
        if event.target not in self.targets[v]:
            raise ValidationError(f"no unary channel {v}->{event.target}")
        return _CONVERSION, int(event.i), event.target

    def apply(self, event: tuple, rng) -> bool:
        """Apply an event tuple in place; False when the collision fizzles (no feasible output).

        The kernel draws from ``rng``, a Generator or a ``_ReadAhead`` source."""
        kind, i, x = event
        tids, kin = self.tids, self.kin
        if kind == _CONVERSION:
            v = tids[i]
            release, _ = self.net._unary_table[v][1][x]  # I_v - I_x
            t_new = kin[i] + release
            if t_new < 0.0:
                raise InfeasibleReactionError(
                    f"type change {v}->{x} needs more kinetic energy than particle {i} has ({kin[i]})"
                )
            self._mutate(i, x, t_new)
            return True
        a, b = (i, x) if tids[i] <= tids[x] else (x, i)
        va, vb = tids[a], tids[b]
        sample_outcome = self.samplers[va][vb]
        if sample_outcome is None:
            raise ValidationError(f"no binary channel for type pair ({va}, {vb})")
        outcome = sample_outcome(va, kin[a], vb, kin[b], self.types, rng)
        if outcome is None:
            return False
        v_out_a, u_a, v_out_b, u_b = outcome
        self._mutate(a, v_out_a, u_a)
        self._mutate(b, v_out_b, u_b)
        return True

    def _mutate(self, i: int, v: int, t: float) -> None:
        """Give particle i type v and kinetic energy t, and update selection."""
        old = self.tids[i]
        self.tids[i] = v
        self.kin[i] = t
        self.touched.add(i)
        if not self.tracking:
            return
        if old != v:  # swap-remove i from its old type's members
            src, k = self.members[old], self.pos[i]
            last = src.pop()
            if last != i:
                src[k] = last
                self.pos[last] = k
            self.pos[i] = len(self.members[v])
            self.members[v].append(i)
            self._refresh_majorants(self.rows_between[old][v])
        consts = self.unary_consts[v]
        if consts is not None:
            # summed left to right over the gated channels, as unary_rate sums them
            rate = 0.0
            for gate, value in consts:
                if t + gate >= 0.0:
                    rate += value
            self.unary_tree.update(i, rate)
        elif self.targets[v]:
            rate = self.net.unary_rate(v, t)
            if not rate >= 0.0:
                raise ValidationError(f"negative rate {rate} from a unary rate function")
            self.unary_tree.update(i, rate)
        elif self.targets[old]:  # otherwise the leaf is 0 already
            self.unary_tree.update(i, 0.0)


def sample_next_event(system: ParticleSystem, network: ReactionNetwork, rng):
    """Draw (waiting time, event) for the current state.

    The waiting time is exponential with the total event rate
    (1/M) * sum over unordered pairs of alpha(T_i, T_j), plus all unary
    rates; the event is picked proportionally to its rate.  Returns
    (inf, None) when the total rate vanishes.  Every collision rate needs a
    bound (ValidationError otherwise).
    """
    if system.size < 1:
        raise ValidationError("need at least one particle")
    # blocks of one proposal: the caller's Generator gives only the doubles drawn
    wait, event = _Engine(system, network).next_event(_ReadAhead(rng, cap=_FIRST_BLOCK))
    if event is None:
        return wait, None
    kind, i, x = event
    return wait, CollisionEvent(i, x) if kind == _COLLISION else UnaryEvent(i, x)


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
    applied = engine.apply(engine.check(event), rng)
    return engine.to_system(system.time), applied


# ---------------------------------------------------------------------------
# trajectory runner
# ---------------------------------------------------------------------------


def _sample_energy(spec, size: int, rng) -> np.ndarray:
    if isinstance(spec, DensityFamily):
        return np.asarray(spec.sample(rng, size=size), dtype=float)
    return np.full(size, float(spec))


def _materialize_initial(initial: InitialState, n_types: int, rng) -> ParticleSystem:
    if isinstance(initial, ParticleSystem):
        return initial.copy()
    if isinstance(initial, TypeCountsInitial):
        counts = [int(c) for c in initial.counts]
        if len(counts) != n_types:
            raise ValidationError(f"initial counts need an entry for all {n_types} types")
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
        if p.size != n_types:
            raise ValidationError(f"mixture probabilities need an entry for all {n_types} types")
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


def _make_snapshot(engine: _Engine, time: float, event_count: int, edges):
    state = engine.to_system(time)
    hists = [
        empirical_histogram(state, v, edges) for v in range(1, engine.types.count + 1)
    ]
    return Snapshot(
        time=time,
        event_count=event_count,
        type_counts=state.type_counts(engine.types.count),
        histograms=hists,
        state=state,
    )


def _validate(config: SimulatorConfig) -> None:
    config.validate()
    config.network.validate_rate_symmetry()


def run(config: SimulatorConfig, _seed_seq=None) -> Trajectory:
    """Run a single trajectory (replica 0 of the configured seed)."""
    if _seed_seq is None:  # run_ensemble validates once and passes each replica's seed
        _validate(config)
        _seed_seq = SeedSequence(entropy=config.seed, spawn_key=(0,))
    rng = default_rng(_seed_seq)
    system = _materialize_initial(config.initial_state, config.network.types.count, rng)
    engine = _Engine(system, config.network)
    edges = (
        np.asarray(config.histogram_edges, dtype=float)
        if config.histogram_edges is not None
        else _default_edges(system)
    )
    t = float(system.time)
    if config.t_end < t:
        raise ValidationError(
            f"t_end {config.t_end} precedes the initial state time {t}", field="t_end"
        )
    pending = deque(sorted(float(s) for s in config.snapshot_times))
    if pending and pending[0] < t:
        raise ValidationError(
            f"snapshot time {pending[0]} precedes the initial state time {t}", field="snapshot_times"
        )
    # nothing draws from rng after the event loop, so read-ahead drops no used double
    draws = _ReadAhead(rng)
    snaps: list[Snapshot] = []
    attempted = applied = noops = 0
    t_end = config.t_end
    max_events = math.inf if config.max_events is None else config.max_events

    def flush(before: float) -> None:
        while pending and pending[0] < before:
            snaps.append(_make_snapshot(engine, pending.popleft(), attempted, edges))

    while attempted < max_events:
        try:
            wait, event = engine.next_event(draws, t_end - t)
        except KineticsError as exc:
            raise SimulationError(str(exc), time=t) from exc
        if pending and pending[0] < t + wait:
            flush(t + wait)
        if event is None or t + wait > t_end:
            t = t_end
            break
        t += wait
        attempted += 1
        try:
            if engine.apply(event, draws):
                applied += 1
            else:
                noops += 1
        except KineticsError as exc:
            kind, i, x = event
            raise SimulationError(str(exc), time=t, indices=(i, x) if kind == _COLLISION else (i,)) from exc
    else:
        # the event budget is spent: later snapshot times are unreachable and dropped
        flush(np.nextafter(t, np.inf))
    return Trajectory(
        snapshots=snaps,
        final_state=engine.to_system(t),
        histogram_edges=edges,
        events_applied=applied,
        noop_events=noops,
        rejected_proposals=engine.rejected,
    )


def run_ensemble(config: SimulatorConfig) -> list[Trajectory]:
    """Independent replicas, run one after another in replica order.

    Replica r draws from SeedSequence(entropy=seed, spawn_key=(r,)), so each
    replica's trajectory depends only on the master seed and r.
    """
    _validate(config)
    return [
        run(config, _seed_seq=SeedSequence(entropy=config.seed, spawn_key=(r,)))
        for r in range(config.replicas)
    ]
