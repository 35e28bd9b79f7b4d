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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
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
    "sample_uniform_split",
    "sample_canonical_split",
    "canonical_split_pdf",
    "BinaryChannel",
    "UnaryChannel",
    "ReactionNetwork",
]


# ---------------------------------------------------------------------------
# collision rates alpha(T, T'), required symmetric under slot exchange
# ---------------------------------------------------------------------------


class ConstantRate:
    """Collision rate independent of the incoming energies."""

    depends_on_sum_only = True

    def __init__(self, value: float):
        if not (value >= 0 and math.isfinite(value)):
            raise ValidationError(f"rate must be finite and >= 0, got {value}")
        self.value = float(value)

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

    depends_on_sum_only = True

    def __init__(self, scale: float, decay: float):
        if not (scale >= 0 and decay >= 0):
            raise ValidationError("scale and decay must be >= 0")
        self.scale = float(scale)
        self.decay = float(decay)

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
    """Wrap an arbitrary vectorized rate function alpha(T, T')."""

    depends_on_sum_only = False

    def __init__(self, fn: Callable, name: str = "custom"):
        self.fn = fn
        self.name = name

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


def sample_uniform_split(t, t_other, rng: np.random.Generator) -> float:
    """Outgoing kinetic energy drawn uniformly on [0, T + T']."""
    if t < 0 or t_other < 0:
        raise ValidationError("kinetic energies must be >= 0")
    total = t + t_other
    if total == 0.0:
        return 0.0
    return float(rng.uniform(0.0, total))


def canonical_split_pdf(rho_a: DensityFamily, rho_b: DensityFamily, total: float, x):
    """Density at x of the first coordinate given that the pair sums to ``total``.

    This is the conditional law of two independent draws from (rho_a, rho_b)
    conditioned on their sum; the normalizer is the convolution of the two
    densities evaluated at the sum.
    """
    x = np.asarray(x, dtype=float)
    z = _split_normalizer(rho_a, rho_b, total)
    if z <= 0.0:
        raise KernelSupportError(
            f"conditioning on total energy {total} carries no mass for this density pair"
        )
    vals = rho_a.pdf(x) * rho_b.pdf(total - x) / z
    return np.where((x >= 0) & (x <= total), vals, 0.0)


def _split_normalizer(rho_a: DensityFamily, rho_b: DensityFamily, total: float) -> float:
    """Convolution of the two densities at ``total`` (closed form when gamma)."""
    ga, gb = rho_a.gamma_shape(), rho_b.gamma_shape()
    if ga is not None and gb is not None and ga[1] == gb[1]:
        from .densities import GammaDensity

        return float(GammaDensity(ga[0] + gb[0], ga[1]).pdf(total))
    n = 4096
    xs = (np.arange(n) + 0.5) * (total / n)
    return float(np.sum(rho_a.pdf(xs) * rho_b.pdf(total - xs)) * (total / n))


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

    # -- energy split law per outgoing pair ---------------------------------

    def split_pdf(self, out: OutputPair, e_avail: float, u):
        raise NotImplementedError

    def split_sample(self, out: OutputPair, e_avail: float, rng) -> float:
        raise NotImplementedError

    # -- assembled outcome law ----------------------------------------------

    def feasible_outputs(self, v, t, v_other, t_other, types: TypeTable):
        """(indices, renormalized weights, available energies) at these inputs."""
        idx, weights, avail = [], [], []
        for k, out in enumerate(self.outputs):
            e = available_kinetic_energy(v, t, v_other, t_other, out.first, out.second, types)
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

    def sample_outcome(self, v, t, v_other, t_other, types, rng):
        """Sample (v1, U, v1', U') or None when no outgoing pair is feasible."""
        idx, w, avail = self.feasible_outputs(v, t, v_other, t_other, types)
        if not idx:
            return None
        if len(idx) == 1:
            pick = 0
        else:
            pick = int(rng.choice(len(idx), p=w))
        out = self.outputs[idx[pick]]
        e = avail[pick]
        u = self.split_sample(out, e, rng)
        return out.first, u, out.second, e - u

    def check_normalization(self, v, t, v_other, t_other, types, n_quad: int = 512) -> float:
        """Quadrature of the total outcome density; should equal outcome_mass."""
        idx, w, avail = self.feasible_outputs(v, t, v_other, t_other, types)
        total = 0.0
        for k, wk, e in zip(idx, w, avail):
            if e == 0.0:
                total += wk  # split degenerates to a point mass at 0
                continue
            h = e / n_quad
            us = (np.arange(n_quad) + 0.5) * h
            total += wk * float(np.sum(self.split_pdf(self.outputs[k], e, us)) * h)
        return total


class UniformKernel(ScatteringKernel):
    """Outgoing kinetic energy uniform on [0, available energy]."""

    kind = "uniform"

    def split_pdf(self, out, e_avail, u):
        u = np.asarray(u, dtype=float)
        if e_avail == 0.0:
            return np.zeros_like(u)
        return np.where((u >= 0) & (u <= e_avail), 1.0 / e_avail, 0.0)

    def split_sample(self, out, e_avail, rng):
        if e_avail == 0.0:
            return 0.0
        return float(rng.uniform(0.0, e_avail))


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
        if e_avail == 0.0:
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
    ``mass_fn(v, t, v_other, t_other)`` makes the kernel sub-normalized
    (collisions may fizzle with the remaining probability).
    """

    kind = "table"

    def __init__(self, outputs, split_pdf_fn, split_sample_fn, mass_fn=None):
        super().__init__(outputs)
        self._pdf = split_pdf_fn
        self._sample = split_sample_fn
        self._mass = mass_fn

    def split_pdf(self, out, e_avail, u):
        return self._pdf(out.first, out.second, e_avail, np.asarray(u, dtype=float))

    def split_sample(self, out, e_avail, rng):
        return float(self._sample(out.first, out.second, e_avail, rng))

    def outcome_mass(self, v, t, v_other, t_other, types):
        if self._mass is not None:
            return float(self._mass(v, t, v_other, t_other))
        return super().outcome_mass(v, t, v_other, t_other, types)


# ---------------------------------------------------------------------------
# channels and network
# ---------------------------------------------------------------------------


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

    def unary_rate(self, v: int, t):
        """Total conversion rate out of a particle (v, T), feasibility-gated."""
        t = np.asarray(t, dtype=float)
        u_full = t + self.types.internal_energies[v - 1]
        total = np.zeros_like(t)
        for ch in self.unary_from(v):
            gate = u_full >= self.types.internal_energies[ch.target - 1]
            total = total + np.where(gate, ch.rate(u_full), 0.0)
        return total

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
        e = available_kinetic_energy(v_a, t_a, v_b, t_b, v_out_a, v_out_b, self.types)
        if e < 0:
            return np.zeros_like(u_a)
        vals = ch.kernel.outcome_density(
            v_b, t_b, v_a, t_a, v_out_b, e - u_a, v_out_a, self.types
        )
        return np.where((u_a >= 0) & (u_a <= e), vals, 0.0)

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
