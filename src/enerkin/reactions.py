"""Collision rates, scattering kernels and the reaction network.

A binary channel attaches a symmetric collision rate and a scattering
kernel to an unordered pair of reactant types; the kernel carries weighted
outgoing type pairs and, per outgoing pair, the conditional law of the
kinetic-energy split.  A unary channel converts one type into another at a
(possibly energy-dependent) rate that vanishes whenever the conversion
would leave negative kinetic energy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .core import (
    InfeasibleReactionError,
    KernelSupportError,
    TypeTable,
    ValidationError,
    available_kinetic_energy,
)
from .densities import DensityFamily

__all__ = [
    "ConstantRate",
    "SumDecayRate",
    "CallableRate",
    "ConstantUnaryRate",
    "PowerGapRate",
    "CallableUnaryRate",
    "OutputPair",
    "ScatteringKernel",
    "UniformKernel",
    "CanonicalKernel",
    "TableKernel",
    "sample_canonical_split",
    "canonical_split_pdf",
    "BinaryChannel",
    "UnaryChannel",
    "ReactionNetwork",
]


# ---------------------------------------------------------------------------
# collision rates alpha(T, T'), symmetric under slot exchange, with a majorant ``bound``;
# a rate of the energy sum alone also has ``of_sum(s)``, the form the grid solver takes
# ---------------------------------------------------------------------------


class ConstantRate:
    """Collision rate independent of the incoming energies."""

    def __init__(self, value: float):
        if not (value >= 0 and math.isfinite(value)):
            raise ValidationError(f"rate must be finite and >= 0, got {value}")
        self.value = float(value)
        self.bound = self.value

    def __call__(self, t, t_other):
        shape = np.broadcast_shapes(np.shape(t), np.shape(t_other))
        return np.full(shape, self.value) if shape else self.value

    def of_sum(self, s):
        shape = np.shape(s)
        return np.full(shape, self.value) if shape else self.value

    def __eq__(self, other):
        return isinstance(other, ConstantRate) and other.value == self.value

    def __repr__(self):
        return f"ConstantRate({self.value})"


class SumDecayRate:
    """Bounded rate scale * exp(-decay * (T + T')), a function of the energy sum."""

    def __init__(self, scale: float, decay: float):
        if not (scale >= 0 and decay >= 0):
            raise ValidationError("scale and decay must be >= 0")
        self.scale = float(scale)
        self.decay = float(decay)
        self.bound = self.scale

    def __call__(self, t, t_other):
        return self.of_sum(np.asarray(t, dtype=float) + np.asarray(t_other, dtype=float))

    def of_sum(self, s):
        return self.scale * np.exp(-self.decay * np.asarray(s, dtype=float))

    def __eq__(self, other):
        return (
            isinstance(other, SumDecayRate)
            and other.scale == self.scale
            and other.decay == self.decay
        )

    def __repr__(self):
        return f"SumDecayRate({self.scale}, {self.decay})"


class CallableRate:
    """Wrap a vectorized rate function alpha(T, T') with an optional majorant ``bound``.

    It has no ``of_sum``, so it is simulator-only: the grid solver refuses it.
    """

    def __init__(self, fn: Callable, name: str = "custom", bound: float | None = None):
        if bound is not None and not (bound >= 0 and math.isfinite(bound)):
            raise ValidationError(f"rate bound must be finite and >= 0, got {bound}")
        self.fn = fn
        self.name = name
        self.bound = None if bound is None else float(bound)

    def __call__(self, t, t_other):
        return self.fn(t, t_other)

    def __repr__(self):
        return f"CallableRate({self.name})"


# ---------------------------------------------------------------------------
# unary rates a_vw(U) of the full input energy U = I_v + T
# ---------------------------------------------------------------------------


class ConstantUnaryRate:
    def __init__(self, value: float):
        if not (value >= 0 and math.isfinite(value)):
            raise ValidationError(f"rate must be finite and >= 0, got {value}")
        self.value = float(value)

    def __call__(self, u):
        if isinstance(u, float):
            return self.value
        shape = np.shape(u)
        return np.full(shape, self.value) if shape else self.value

    def __eq__(self, other):
        return isinstance(other, ConstantUnaryRate) and other.value == self.value

    def __repr__(self):
        return f"ConstantUnaryRate({self.value})"


class PowerGapRate:
    """Rate b * (U - threshold)^exponent above the threshold, 0 below.

    The threshold is the internal energy of the target type, so the rate
    vanishes exactly where the conversion is infeasible.
    """

    def __init__(self, b: float, exponent: float, threshold: float):
        if not (b >= 0):
            raise ValidationError(f"rate prefactor must be >= 0, got {b}")
        self.b = float(b)
        self.exponent = float(exponent)
        self.threshold = float(threshold)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        gap = u - self.threshold
        if self.exponent == 0.0:
            return np.where(gap >= 0, self.b, 0.0)
        above = gap > 0
        return np.where(above, self.b * np.power(np.where(above, gap, 1.0), self.exponent), 0.0)

    def __repr__(self):
        return f"PowerGapRate({self.b}, {self.exponent}, {self.threshold})"


class CallableUnaryRate:
    def __init__(self, fn: Callable, name: str = "custom"):
        self.fn = fn
        self.name = name

    def __call__(self, u):
        return self.fn(u)

    def __repr__(self):
        return f"CallableUnaryRate({self.name})"


# ---------------------------------------------------------------------------
# scattering kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutputPair:
    """An outgoing type pair with its selection weight."""

    first: int
    second: int
    weight: float = 1.0

    def __post_init__(self):
        if self.first < 1 or self.second < 1:
            raise ValidationError("output type ids are 1-based")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValidationError(f"output weight must be positive, got {self.weight}")


def canonical_split_pdf(rho_a: DensityFamily, rho_b: DensityFamily, total, x):
    """Density at x of the first coordinate given that the pair sums to ``total``.

    This is the conditional law of two independent draws from (rho_a, rho_b)
    conditioned on their sum; the normalizer is the convolution of the two
    densities evaluated at the sum.  ``total`` may be an array of sums
    broadcast against x; a sum that carries no mass raises, naming the first.
    """
    x = np.asarray(x, dtype=float)
    z = _split_normalizer(rho_a, rho_b, total)
    bad = np.flatnonzero(z <= 0.0)
    if bad.size:
        raise KernelSupportError(
            f"conditioning on total energy {np.ravel(total)[bad[0]]} carries no mass for this "
            "density pair"
        )
    vals = rho_a.pdf(x) * rho_b.pdf(total - x) / z
    return np.where((x >= 0) & (x <= total), vals, 0.0)


def _split_normalizer(rho_a: DensityFamily, rho_b: DensityFamily, total) -> np.ndarray:
    """Convolution of the two densities at each ``total`` (closed form when gamma)."""
    ga, gb = rho_a.gamma_shape(), rho_b.gamma_shape()
    if ga is not None and gb is not None and ga[1] == gb[1]:
        from .densities import GammaDensity

        return GammaDensity(ga[0] + gb[0], ga[1]).pdf(total)
    n = 4096

    def midpoint(t):
        xs = (np.arange(n) + 0.5) * (t / n)
        return float(np.sum(rho_a.pdf(xs) * rho_b.pdf(t - xs)) * (t / n))

    # one total at a time, so that no (totals x 4096) array is built
    return np.array([midpoint(t) for t in np.ravel(total)]).reshape(np.shape(total))


def sample_canonical_split(
    rho_a: DensityFamily, rho_b: DensityFamily, total: float, rng: np.random.Generator
) -> float:
    """Draw the first outgoing kinetic energy under the canonical split at ``total``.

    Gamma-family pairs with a common rate use the exact beta representation;
    other families fall back on a tabulated inverse CDF.
    """
    if total < 0:
        raise ValidationError(f"total kinetic energy must be >= 0, got {total}")
    if total == 0.0:
        return 0.0
    ga, gb = rho_a.gamma_shape(), rho_b.gamma_shape()
    if ga is not None and gb is not None and ga[1] == gb[1]:
        return float(total * rng.beta(ga[0], gb[0]))
    n = 2048
    h = total / n
    xs = (np.arange(n) + 0.5) * h
    w = rho_a.pdf(xs) * rho_b.pdf(total - xs)
    mass = float(w.sum())
    if mass <= 0.0:
        raise KernelSupportError(
            f"conditioning on total energy {total} carries no mass for this density pair"
        )
    cum = np.concatenate([[0.0], np.cumsum(w)]) / mass
    u = rng.uniform()
    k = int(np.searchsorted(cum, u, side="right") - 1)
    k = min(max(k, 0), n - 1)
    frac = (u - cum[k]) / max(cum[k + 1] - cum[k], 1e-300)
    return float((k + frac) * h)


def _tanh_sinh_rule(n: int = 81, t_max: float = 3.1):
    """Tanh-sinh nodes on (0, 1) and weights renormalized to integrate constants exactly.

    The nodes cluster double-exponentially at both ends, which resolves the
    integrable x^(nu-1) endpoint singularities of canonical splits built from
    gamma densities of shape nu < 1 (error about 1e-8 at nu = 1/2).  At
    t_max = 3.1 the outermost nodes stay 3 ulps inside the interval.
    """
    t = np.linspace(-t_max, t_max, n)
    y = 0.5 * np.pi * np.sinh(t)
    weights = np.cosh(t) / np.cosh(y) ** 2
    return 1.0 / (1.0 + np.exp(-2.0 * y)), weights / weights.sum()


_QUAD_NODES, _QUAD_WEIGHTS = _tanh_sinh_rule()


def _pick(weights: list, rng) -> int:
    """Index drawn with probabilities ``weights``, as ``rng.choice(len(weights), p=weights)``
    draws it: one ``random()`` against the cumulative weights divided by their total."""
    cdf = list(accumulate(weights))
    total = cdf[-1]
    return bisect_right([c / total for c in cdf], rng.random())


class ScatteringKernel:
    """Conditional law of the outgoing (types, energy split) given a colliding pair.

    Outgoing pairs are ordered: the first entry replaces the first input
    slot.  At given input energies the weights are renormalized over the
    feasible subset; when no outgoing pair is feasible the collision is a
    no-op for the caller.
    """

    kind = "abstract"

    def __init__(self, outputs: Sequence[OutputPair | tuple]):
        outs = []
        for o in outputs:
            outs.append(o if isinstance(o, OutputPair) else OutputPair(*o))
        if not outs:
            raise ValidationError("a kernel needs at least one outgoing pair")
        seen = set()
        for o in outs:
            key = (o.first, o.second)
            if key in seen:
                raise ValidationError(f"duplicate outgoing pair {key}")
            seen.add(key)
        self.outputs = tuple(outs)
        self._release_types, self._releases = None, {}

    # -- energy split law per outgoing pair ---------------------------------

    def split_pdf(self, out: OutputPair, e_avail, u):
        """Density of the first output's energy u at available energy ``e_avail``,
        a float or an array of positive energies broadcast against u."""
        raise NotImplementedError

    def split_sample(self, out: OutputPair, e_avail: float, rng) -> float:
        raise NotImplementedError

    # -- assembled outcome law ----------------------------------------------

    def feasible_outputs(self, v, t, v_other, t_other, types: TypeTable):
        """(indices, renormalized weights, available energies) at these inputs."""
        kinetic = t + t_other
        idx, weights, avail = [], [], []
        for k, out in enumerate(self.outputs):
            e = available_kinetic_energy(kinetic, (v, v_other), (out.first, out.second), types)
            if e >= 0.0:
                idx.append(k)
                weights.append(out.weight)
                avail.append(e)
        w = np.asarray(weights, dtype=float)
        if w.size:
            w = w / w.sum()
        return idx, w, avail

    def outcome_density(self, v, t, v_other, t_other, v_out, u, v_out_other, types):
        """Density of the triple (first output type, its energy, second type)."""
        idx, w, avail = self.feasible_outputs(v, t, v_other, t_other, types)
        for k, wk, e in zip(idx, w, avail):
            out = self.outputs[k]
            if (out.first, out.second) == (v_out, v_out_other):
                u_arr = np.asarray(u, dtype=float)
                vals = wk * self.split_pdf(out, e, u_arr)
                return np.where((u_arr >= 0) & (u_arr <= e), vals, 0.0)
        return np.zeros(np.shape(u)) if np.shape(u) else 0.0

    def outcome_mass(self, v, t, v_other, t_other, types) -> float:
        """Total outgoing probability; 1 unless every outgoing pair is infeasible."""
        idx, _, _ = self.feasible_outputs(v, t, v_other, t_other, types)
        return 1.0 if idx else 0.0

    @property
    def sub_normalized(self) -> bool:
        """True when ``outcome_mass`` may lie below 1 where an output is feasible."""
        return type(self).outcome_mass is not ScatteringKernel.outcome_mass

    def sample_outcome(self, v, t, v_other, t_other, types, rng):
        """Sample (v1, U, v1', U') or None when the collision fizzles.

        It fizzles when no outgoing pair is feasible, and otherwise with
        probability 1 - outcome_mass; only a sub-normalized kernel draws the
        uniform that decides this.  A one-output kernel builds no weights and
        draws no output.  A split outside [0, available energy] (a faulty
        custom sampler) raises InfeasibleReactionError.
        """
        if len(self.outputs) == 1:
            out = self.outputs[0]
            e = (t + t_other) + self._release(v, v_other, types)
            if e < 0.0 or self._fizzles(v, t, v_other, t_other, types, rng):
                return None
        else:
            idx, w, avail = self.feasible_outputs(v, t, v_other, t_other, types)
            if not idx or self._fizzles(v, t, v_other, t_other, types, rng):
                return None
            pick = 0 if len(idx) == 1 else _pick(w.tolist(), rng)
            out, e = self.outputs[idx[pick]], avail[pick]
        u = self.split_sample(out, e, rng)
        if not 0.0 <= u <= e:
            raise InfeasibleReactionError(f"split {u} of output {out} outside [0, {e}]")
        return out.first, u, out.second, e - u

    def _release(self, v, v_other, types: TypeTable) -> float:
        """Energy the one output pair releases from inputs (v, v_other), cached per type table."""
        if self._release_types is not types:
            self._release_types, self._releases = types, {}
        release = self._releases.get((v, v_other))
        if release is None:
            out = self.outputs[0]
            release = float(available_kinetic_energy(0.0, (v, v_other), (out.first, out.second), types))
            self._releases[v, v_other] = release
        return release

    def _fizzles(self, v, t, v_other, t_other, types, rng) -> bool:
        if not self.sub_normalized:
            return False
        mass = self.outcome_mass(v, t, v_other, t_other, types)
        if not 0.0 <= mass <= 1.0:
            raise ValidationError(f"outcome mass {mass} outside [0, 1] at energies {t}, {t_other}")
        return rng.random() >= mass

    def check_normalization(self, v, t, v_other, t_other, types) -> float:
        """Tanh-sinh quadrature of the total outcome density; should equal outcome_mass."""
        totals, _ = self._quadrature_totals(
            v, np.array([t], dtype=float), v_other, np.array([t_other], dtype=float), types
        )
        return float(totals[0])

    def _quadrature_totals(self, v, t, v_other, t_other, types):
        """``check_normalization`` at each entry of the 1-d energy arrays t, t_other.

        Returns the totals and whether any output is feasible there.  Each
        output's split density is evaluated once on a (rows x nodes) array, and
        every total takes the same float operations, in the same order, as
        ``feasible_outputs`` and a left-to-right sum over the feasible outputs.
        """
        kinetic = t + t_other
        avail = [
            available_kinetic_energy(kinetic, (v, v_other), (out.first, out.second), types)
            for out in self.outputs
        ]
        feasible = np.stack([e >= 0.0 for e in avail], axis=1)
        # the renormalizing sum depends on the feasible subset alone: take it per subset,
        # as feasible_outputs does, since numpy does not sum weights left to right
        weights = np.array([out.weight for out in self.outputs])
        subsets, row_subset = np.unique(feasible, axis=0, return_inverse=True)
        sums = np.array([weights[s].sum() if s.any() else 1.0 for s in subsets])
        norm = sums[row_subset.reshape(-1)]
        totals = np.zeros(kinetic.shape)
        for out, weight, e in zip(self.outputs, weights, avail):
            wk = weight / norm
            term = np.where(e == 0.0, wk, 0.0)  # split degenerates to a point mass at 0
            inside = e > 0.0
            if inside.any():
                e_in = e[inside]
                try:
                    pdf = self.split_pdf(out, e_in[:, None], e_in[:, None] * _QUAD_NODES)
                except KernelSupportError:
                    if kinetic.size > 1:  # raise the fault of the first pair in draw order
                        for row in (slice(i, i + 1) for i in range(kinetic.size)):
                            self._quadrature_totals(v, t[row], v_other, t_other[row], types)
                    raise
                term[inside] = wk[inside] * e_in * np.sum(pdf * _QUAD_WEIGHTS, axis=1)
            totals += term
        return totals, feasible.any(axis=1)


class UniformKernel(ScatteringKernel):
    """Outgoing kinetic energy uniform on [0, available energy]."""

    kind = "uniform"

    def split_pdf(self, out, e_avail, u):
        u = np.asarray(u, dtype=float)
        e = np.asarray(e_avail, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((u >= 0) & (u <= e) & (e > 0.0), 1.0 / e, 0.0)

    def split_sample(self, out, e_avail, rng):
        if e_avail == 0.0:
            return 0.0
        return e_avail * rng.random()  # the double rng.uniform(0.0, e_avail) returns


class CanonicalKernel(ScatteringKernel):
    """Conditional law of independent per-type draws given their energy sum.

    ``densities`` maps outgoing type ids to energy densities; the split law
    for an outgoing pair (a, b) at available energy e is
    rho_a(x) rho_b(e - x) / Z(e).
    """

    kind = "canonical"

    def __init__(self, outputs, densities: dict[int, DensityFamily]):
        super().__init__(outputs)
        self.densities = dict(densities)
        for out in self.outputs:
            for tid in (out.first, out.second):
                if tid not in self.densities:
                    raise ValidationError(
                        f"canonical kernel lacks a density for output type {tid}"
                    )

    def split_pdf(self, out, e_avail, u):
        if np.ndim(e_avail) == 0 and e_avail == 0.0:
            return np.zeros(np.shape(u))
        return canonical_split_pdf(
            self.densities[out.first], self.densities[out.second], e_avail, u
        )

    def split_sample(self, out, e_avail, rng):
        return sample_canonical_split(
            self.densities[out.first], self.densities[out.second], e_avail, rng
        )


class TableKernel(ScatteringKernel):
    """Custom split law supplied as (pdf, sampler) callables.

    ``split_pdf_fn(first, second, e_avail, u)`` and
    ``split_sample_fn(first, second, e_avail, rng)``; an optional
    ``mass_fn(v, t, v_other, t_other)`` in [0, 1] makes the kernel
    sub-normalized: a feasible collision fizzles, leaving both particles
    unchanged, with probability 1 - mass_fn.  The simulator draws one more
    uniform per collision to decide, and ``split_pdf_fn`` should integrate
    to mass_fn.  Table kernels are simulator-only: the collision equation's
    ``CollisionPlan`` refuses them.
    """

    kind = "table"

    def __init__(self, outputs, split_pdf_fn, split_sample_fn, mass_fn=None):
        super().__init__(outputs)
        self._pdf = split_pdf_fn
        self._sample = split_sample_fn
        self._mass = mass_fn

    def split_pdf(self, out, e_avail, u):
        u = np.asarray(u, dtype=float)
        if np.ndim(e_avail) == 0:
            return self._pdf(out.first, out.second, e_avail, u)
        # split_pdf_fn takes one energy: one call per row of u
        return np.array([
            np.broadcast_to(self._pdf(out.first, out.second, e, row), row.shape)
            for e, row in zip(np.ravel(e_avail), u)
        ])

    def split_sample(self, out, e_avail, rng):
        return float(self._sample(out.first, out.second, e_avail, rng))

    @property
    def sub_normalized(self) -> bool:
        return self._mass is not None

    def outcome_mass(self, v, t, v_other, t_other, types):
        if self._mass is not None:
            return float(self._mass(v, t, v_other, t_other))
        return super().outcome_mass(v, t, v_other, t_other, types)


# ---------------------------------------------------------------------------
# channels and network
# ---------------------------------------------------------------------------


def _as_float(rate) -> float:
    """A rate function's value at one energy (a float, or a 0-d or size-1 array)."""
    return rate if type(rate) is float else np.asarray(rate, dtype=float).item()


@dataclass(frozen=True)
class BinaryChannel:
    """A collision channel for the unordered reactant pair ``pair`` (v <= w).

    The rate is evaluated with the slot of the lower type id first; the
    kernel's outgoing pairs use the same slot convention.
    """

    pair: tuple[int, int]
    rate: object
    kernel: ScatteringKernel

    def __post_init__(self):
        v, w = self.pair
        if v < 1 or w < 1:
            raise ValidationError("reactant type ids are 1-based")
        if v > w:
            raise ValidationError(f"reactant pair {self.pair} must be ordered v <= w")


@dataclass(frozen=True)
class UnaryChannel:
    source: int
    target: int
    rate: object

    def __post_init__(self):
        if self.source < 1 or self.target < 1:
            raise ValidationError("type ids are 1-based")
        if self.source == self.target:
            raise ValidationError(f"unary channel {self.source}->{self.target} is a self-loop")


class ReactionNetwork:
    """All reaction channels over a type table.

    Binary channels are keyed by unordered reactant pair (at most one per
    pair class); unary channels by (source, target).  Same-type reactant
    classes must carry exchange-symmetric output weights, since the two
    input slots are then indistinguishable.
    """

    def __init__(
        self,
        types: TypeTable,
        binary: Sequence[BinaryChannel] = (),
        unary: Sequence[UnaryChannel] = (),
    ):
        self.types = types
        self.binary = tuple(binary)
        self.unary = tuple(unary)
        self._by_pair: dict[tuple[int, int], BinaryChannel] = {}
        for ch in self.binary:
            v, w = ch.pair
            types.check_ids(np.array(ch.pair))
            if ch.pair in self._by_pair:
                raise ValidationError(f"duplicate binary channel for reactant pair {ch.pair}")
            self._by_pair[ch.pair] = ch
            for out in ch.kernel.outputs:
                types.check_ids(np.array([out.first, out.second]))
            if v == w:
                weights = {(o.first, o.second): o.weight for o in ch.kernel.outputs}
                for (a, b), wt in weights.items():
                    if a != b and not math.isclose(weights.get((b, a), -1.0), wt):
                        raise ValidationError(
                            f"channel {ch.pair}: outputs ({a},{b}) and ({b},{a}) need "
                            "equal weights because the input slots are exchangeable"
                        )
        self._unary_by_source: dict[int, list[UnaryChannel]] = {}
        seen = set()
        for ch in self.unary:
            types.check_ids(np.array([ch.source, ch.target]))
            if (ch.source, ch.target) in seen:
                raise ValidationError(
                    f"duplicate unary channel {ch.source}->{ch.target}"
                )
            seen.add((ch.source, ch.target))
            self._unary_by_source.setdefault(ch.source, []).append(ch)
        # per source type: I_v, and each channel's gate offset I_v - I_w and rate
        self._unary_table = {
            v: (
                available_kinetic_energy(0.0, (v,), (), types),
                [(float(available_kinetic_energy(0.0, (v,), (ch.target,), types)), ch.rate)
                 for ch in chans],
            )
            for v, chans in self._unary_by_source.items()
        }

    def binary_channel(self, v: int, w: int) -> BinaryChannel | None:
        return self._by_pair.get((min(v, w), max(v, w)))

    def unary_from(self, v: int) -> list[UnaryChannel]:
        return self._unary_by_source.get(v, [])

    @property
    def has_unary(self) -> bool:
        return bool(self.unary)

    def pair_rate(self, v: int, t, w: int, t_other):
        """alpha_{vw}(T, T') with the canonical slot convention; 0 when no channel."""
        ch = self.binary_channel(v, w)
        if ch is None:
            shape = np.broadcast_shapes(np.shape(t), np.shape(t_other))
            return np.zeros(shape) if shape else 0.0
        if v <= w:
            return ch.rate(t, t_other)
        return ch.rate(t_other, t)

    def unary_rates(self, v: int, t) -> list:
        """Rate of each channel in ``unary_from(v)`` out of a particle (v, T).

        A channel's rate is a function of the full energy U = I_v + T and is
        0 wherever the conversion would leave negative kinetic energy.  A
        float T gives a list of floats, evaluated from the per-type table
        built with the network; they equal the array results bit for bit.
        """
        if isinstance(t, float):
            i_v, chans = self._unary_table.get(v, (0.0, ()))
            return [_as_float(rate(t + i_v)) if t + gate >= 0.0 else 0.0 for gate, rate in chans]
        t = np.asarray(t, dtype=float)
        u_full = available_kinetic_energy(t, (v,), (), self.types)
        rates = []
        for ch in self.unary_from(v):
            gate = available_kinetic_energy(t, (v,), (ch.target,), self.types) >= 0.0
            rates.append(np.where(gate, ch.rate(u_full), 0.0))
        return rates

    def unary_rate(self, v: int, t):
        """Total conversion rate out of a particle (v, T), feasibility-gated (a float for a float T)."""
        if isinstance(t, float):
            total = 0.0
            for rate in self.unary_rates(v, t):  # left to right, as the array sum below
                total += rate
            return total
        t = np.asarray(t, dtype=float)
        return sum(self.unary_rates(v, t), np.zeros_like(t))

    def outcome_density(self, v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b):
        """Density that slot a becomes (v_out_a, u_a) and slot b becomes v_out_b.

        Slots are canonicalized internally so the value is invariant under
        exchanging (a, b) jointly in inputs and outputs.
        """
        ch = self.binary_channel(v_a, v_b)
        if ch is None:
            return np.zeros(np.shape(u_a)) if np.shape(u_a) else 0.0
        if (v_a, v_b) == ch.pair:
            return ch.kernel.outcome_density(
                v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b, self.types
            )
        # reversed slot order: the slot-a energy is the complement of the
        # kernel's first outgoing energy, a measure-preserving change of variable
        u_a = np.asarray(u_a, dtype=float)
        e = available_kinetic_energy(t_a + t_b, (v_a, v_b), (v_out_a, v_out_b), self.types)
        if e < 0:
            return np.zeros_like(u_a)
        vals = ch.kernel.outcome_density(
            v_b, t_b, v_a, t_a, v_out_b, e - u_a, v_out_a, self.types
        )
        return np.where((u_a >= 0) & (u_a <= e), vals, 0.0)

    def kernel_normalization_errors(self, n_samples: int, rng, scale: float = 1.0) -> dict:
        """Worst |quadrature of the outcome law - outcome mass| per binary channel.

        Each channel is checked at ``n_samples`` input pairs whose energies
        are drawn i.i.d. exponential with mean ``scale``, all in one array;
        keys are reactant pairs.  The result equals that of drawing and
        checking one pair at a time with ``check_normalization``.
        """
        errors = {}
        for ch in self.binary:
            v, w = ch.pair
            kernel = ch.kernel
            t, tp = rng.exponential(scale, size=(n_samples, 2)).T
            totals, feasible = kernel._quadrature_totals(v, t, w, tp, self.types)
            if kernel.sub_normalized:
                pairs = zip(t.tolist(), tp.tolist())
                masses = [kernel.outcome_mass(v, a, w, b, self.types) for a, b in pairs]
            else:
                masses = np.where(feasible, 1.0, 0.0)
            # the largest error, ignoring NaN
            errors[ch.pair] = float(np.fmax.reduce(np.abs(totals - masses), initial=0.0))
        return errors

    def validate_rate_symmetry(self, n_samples: int = 64, seed: int = 0, scale: float = 1.0):
        """Spot-check alpha(T, T') = alpha(T', T) on same-type channels."""
        rng = np.random.default_rng(seed)
        for ch in self.binary:
            v, w = ch.pair
            if v != w:
                continue  # cross-type symmetry holds by the slot convention
            t = rng.exponential(scale, size=n_samples)
            tp = rng.exponential(scale, size=n_samples)
            a = np.asarray(ch.rate(t, tp), dtype=float)
            b = np.asarray(ch.rate(tp, t), dtype=float)
            if not np.allclose(a, b, rtol=1e-9, atol=1e-12):
                raise ValidationError(
                    f"rate for pair {ch.pair} is not symmetric under slot exchange"
                )
