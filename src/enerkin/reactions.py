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
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .core import (
    InfeasibleReactionError,
    KernelSupportError,
    TypeTable,
    ValidationError,
    _FrozenRecord,
    available_kinetic_energy,
)
from .densities import DensityFamily, GammaDensity

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
        if not all(x >= 0 and math.isfinite(x) for x in (scale, decay)):
            raise ValidationError(f"scale and decay must be finite and >= 0, got {scale} and {decay}")
        self.scale = float(scale)
        self.decay = float(decay)
        self.bound = self.scale

    def __call__(self, t, t_other):
        if isinstance(t, float) and isinstance(t_other, float):
            # the float64 sum and product numpy takes, without its array overhead;
            # np.exp stays, since math.exp may differ from it in the last bit
            return self.scale * np.exp(-self.decay * (t + t_other))
        return self.scale * np.exp(-self.decay * np.add(t, t_other, dtype=float))

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
        if not (b >= 0 and all(map(math.isfinite, (b, exponent, threshold)))):
            raise ValidationError(
                f"need finite b >= 0, exponent and threshold, got {b}, {exponent}, {threshold}")
        self.b = float(b)
        self.exponent = float(exponent)
        self.threshold = float(threshold)

    def __call__(self, u):
        scalar = isinstance(u, float)
        gap = (u if scalar else np.asarray(u, dtype=float)) - self.threshold
        above = gap >= 0 if self.exponent == 0.0 else gap > 0  # exponent 0: a plain gate
        if scalar:  # np.power, as below: ** may differ from it in the last bit
            return self.b * np.power(gap, self.exponent) if above else 0.0
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


class OutputPair(_FrozenRecord):
    """An outgoing type pair with its selection weight."""

    _fields = ("first", "second", "weight")

    def __init__(self, first: int, second: int, weight: float = 1.0):
        vars(self).update(first=first, second=second, weight=weight)
        if first < 1 or second < 1:
            raise ValidationError("output type ids are 1-based")
        if not (weight > 0 and math.isfinite(weight)):
            raise ValidationError(f"output weight must be positive, got {weight}")


def _split_support(rho_a: DensityFamily, rho_b: DensityFamily, e):
    """(lo, hi) outside which rho_a(x) rho_b(e - x) vanishes, from the densities' supports
    ([0, e] for two on [0, inf)); ``e`` may be an array."""
    (lo_a, hi_a), (lo_b, hi_b) = rho_a.support(), rho_b.support()
    return np.maximum(lo_a, e - hi_b), np.minimum(hi_a, e - lo_b)


def _plan_support_fault(ch: BinaryChannel) -> str | None:
    """Why the solver's ``CollisionPlan``, and so ``equilibrium.product_form_measure``,
    cannot take ``ch``, or None.  It reads only the channel's rate, kernel and
    densities, so checking a network loads no solver."""
    if not hasattr(ch.rate, "of_sum"):
        return f"rate {ch.rate!r} is not a function of the energy sum (it has no of_sum)"
    if ch.kernel.kind == "uniform":
        return None
    if ch.kernel.kind != "canonical":
        return (
            f"kernel kind {ch.kernel.kind!r} is simulator-only; only 'uniform' and "
            "'canonical' kernels declare their split densities"
        )
    betas = set()
    for tid, shape in ch.kernel.gamma_shapes.items():
        if shape is None:
            fam = ch.kernel.densities[tid]
            return f"canonical density of type {tid} is {type(fam).__name__}, not a gamma law"
        betas.add(shape[1])
    if len(betas) > 1:
        return f"canonical densities need one common beta, got betas {sorted(betas)}"
    return None


def _midpoint_grid(rho_a: DensityFamily, rho_b: DensityFamily, e, n: int) -> tuple:
    """(lo, hi, h, w): the split's support at the sum ``e``, the width h of its n
    midpoint cells (0 on an empty support) and rho_a(x) rho_b(e - x) at each midpoint x."""
    lo, hi = _split_support(rho_a, rho_b, e)
    h = max(hi - lo, 0.0) / n
    xs = lo + (np.arange(n) + 0.5) * h
    return lo, hi, h, rho_a.pdf(xs) * rho_b.pdf(e - xs)


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


class _OutcomeTable:
    """The feasible outputs of one kernel for one ordered input pair.

    Output k is feasible at kinetic energy K when its available energy
    K + releases[k] is >= 0, where releases[k] = I_in - I_out comes from
    ``available_kinetic_energy``.  Rounding keeps that test monotone in the
    release, so the feasible subsets are nested and each is known by its
    size, and every output is feasible at each K >= ``all_feasible_from``
    = -min(releases).  For every size s some kinetic energy gives, row s of
    ``weights`` holds each output's weight renormalized as w / w.sum() over
    the subset (0 outside it), and ``subsets[s]`` the subset's output indices
    in output order with the cumulative shares of their weights, against
    which one ``random()`` picks an output as ``rng.choice(s, p=weights)``
    does.
    """

    def __init__(self, outputs, releases: list):
        self.releases = releases
        self._descending = sorted(self.releases, reverse=True)
        self.all_feasible_from = -self._descending[-1]
        self._release_row = np.array(self.releases)
        n = len(outputs)
        self.weights = np.zeros((n + 1, n))
        self.subsets = {}
        for size in range(n + 1):
            if 0 < size < n and self._descending[size] == self._descending[size - 1]:
                continue  # it would split tied releases: no kinetic energy leaves this subset
            lowest = self._descending[size - 1] if size else math.inf
            idx = [k for k, r in enumerate(self.releases) if r >= lowest]
            w = np.asarray([outputs[k].weight for k in idx], dtype=float)
            w = w / w.sum()
            self.weights[size, idx] = w
            cdf = list(accumulate(w.tolist()))
            self.subsets[size] = (idx, [c / cdf[-1] for c in cdf])

    def size(self, kinetic: float) -> int:
        """Number of feasible outputs at the kinetic energy ``kinetic``."""
        n = 0
        for release in self._descending:
            if not kinetic + release >= 0.0:
                break
            n += 1
        return n

    def sizes(self, kinetic: np.ndarray) -> np.ndarray:
        """Number of feasible outputs at each entry of the 1-d array ``kinetic``."""
        return np.count_nonzero(kinetic[:, None] + self._release_row >= 0.0, axis=1)


class ScatteringKernel:
    """Conditional law of the outgoing (types, energy split) given a colliding pair.

    Outgoing pairs are ordered: the first entry replaces the first input
    slot.  At given input energies the weights are renormalized over the
    feasible subset, and each split law integrates to 1, so the collision is
    a no-op for the caller only when no outgoing pair is feasible.
    """

    kind = "abstract"

    def __init__(self, outputs: Sequence[OutputPair | tuple]):
        outs = [o if isinstance(o, OutputPair) else OutputPair(*o) for o in outputs]
        if not outs:
            raise ValidationError("a kernel needs at least one outgoing pair")
        self._index = {}  # output index by (first, second)
        for k, o in enumerate(outs):
            key = (o.first, o.second)
            if key in self._index:
                raise ValidationError(f"duplicate outgoing pair {key}")
            self._index[key] = k
        self.outputs = tuple(outs)
        self._table_types, self._tables = None, {}

    # -- energy split law per outgoing pair ---------------------------------

    def split_pdf(self, out: OutputPair, e_avail, u):
        """Density of the first output's energy u at available energies ``e_avail``:
        an array of positive energies, one per row of u, broadcast against u."""
        raise NotImplementedError

    def split_sample(self, out: OutputPair, e_avail: float, rng) -> float:
        raise NotImplementedError

    def _split_support(self, out: OutputPair, e_avail: np.ndarray) -> tuple:
        """(lo, hi), broadcast against ``e_avail``, outside which its split density vanishes."""
        return 0.0, e_avail

    # -- assembled outcome law ----------------------------------------------

    def _outcome_table(self, v, v_other, types: TypeTable) -> _OutcomeTable:
        """The outcome table of inputs (v, v_other), cached per type table."""
        if self._table_types is not types:
            self._table_types, self._tables = types, {}
        table = self._tables.get((v, v_other))
        if table is None:
            releases = [
                float(available_kinetic_energy(0.0, (v, v_other), (o.first, o.second), types))
                for o in self.outputs
            ]
            table = self._tables[v, v_other] = _OutcomeTable(self.outputs, releases)
        return table

    def outcome_density(self, v, t, v_other, t_other, v_out, u, v_out_other, types):
        """Density of the triple (first output type, its energy, second type).

        The input energies are floats, or 1-d arrays with one row per entry;
        u is then a float or an array whose leading axis runs over the rows.
        A split of zero available energy is a point mass: it has no density.
        """
        kinetic = np.add(t, t_other)
        rows = kinetic.reshape(-1)
        u = np.asarray(u, dtype=float)
        u = np.broadcast_to(u if kinetic.ndim else u[None], rows.shape + u.shape[kinetic.ndim:])
        dens = np.zeros(u.shape)
        k = self._index.get((v_out, v_out_other))
        if k is not None:
            table = self._outcome_table(v, v_other, types)
            avail = rows + table.releases[k]
            inside = avail > 0.0
            if inside.any():
                # the rows with energy to split; a slice when that is all, which copies nothing
                inside = slice(None) if inside.all() else np.flatnonzero(inside)
                e = avail[inside].reshape((-1,) + (1,) * (u.ndim - 1))
                u_in = u[inside]
                wk = table.weights[table.sizes(rows[inside]), k].reshape(e.shape)
                vals = wk * self.split_pdf(self.outputs[k], e, u_in)
                dens[inside] = np.where((u_in >= 0) & (u_in <= e), vals, 0.0)
        return dens if kinetic.ndim else dens[0]

    def sample_outcome(self, v, t, v_other, t_other, types, rng):
        """Sample (v1, U, v1', U'), or None when no outgoing pair is feasible.

        A single feasible output is taken without a draw.  A split outside
        [0, available energy] (a faulty custom sampler) raises
        InfeasibleReactionError.  The feasible outputs are counted only below
        the table's ``all_feasible_from``.
        """
        table = self._tables.get((v, v_other)) if self._table_types is types else None
        if table is None:
            table = self._outcome_table(v, v_other, types)
        kinetic = t + t_other
        if kinetic >= table.all_feasible_from:
            size = len(table.releases)
        else:
            size = table.size(kinetic)
            if not size:
                return None
        idx, shares = table.subsets[size]
        k = idx[0] if size == 1 else idx[bisect_right(shares, rng.random())]
        out, e = self.outputs[k], kinetic + table.releases[k]
        u = self.split_sample(out, e, rng)
        if not 0.0 <= u <= e:
            raise InfeasibleReactionError(f"split {u} of output {out} outside [0, {e}]")
        return out.first, u, out.second, e - u

    def check_normalization(self, v, t, v_other, t_other, types) -> float:
        """Tanh-sinh quadrature of the total outcome density: 1 if an output is feasible, else 0."""
        totals, _ = self._quadrature_totals(
            v, np.array([t], dtype=float), v_other, np.array([t_other], dtype=float), types
        )
        return float(totals[0])

    def _quadrature_totals(self, v, t, v_other, t_other, types):
        """``check_normalization`` at each entry of the 1-d energy arrays t, t_other.

        Returns the totals and whether any output is feasible there.  Each
        output's split density is evaluated once on a (rows x nodes) array, and
        every total takes the same float operations, in the same order, as a
        left-to-right sum over the feasible outputs of the outcome table: each
        output's renormalized weight times the quadrature of its split over its
        support at the available energy kinetic + release.
        """
        kinetic = t + t_other
        table = self._outcome_table(v, v_other, types)
        sizes = table.sizes(kinetic)
        totals = np.zeros(kinetic.shape)
        for out, wk, release in zip(self.outputs, table.weights[sizes].T, table.releases):
            e = kinetic + release
            term = np.where(e == 0.0, wk, 0.0)  # split degenerates to a point mass at 0
            inside = e > 0.0
            if inside.any():
                e_in = e[inside][:, None]
                lo, hi = self._split_support(out, e_in)
                pdf = self.split_pdf(out, e_in, lo + (hi - lo) * _QUAD_NODES)
                term[inside] = wk[inside] * (hi - lo)[:, 0] * np.sum(pdf * _QUAD_WEIGHTS, axis=1)
            totals += term
        return totals, sizes > 0


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
    rho_a(x) rho_b(e - x) / Z(e), with Z the convolution of the two densities.
    Each output's law is resolved once, here.  For Gamma(nu_a, beta) and
    Gamma(nu_b, beta) the split is e Beta(nu_a, nu_b) and Z is the
    Gamma(nu_a + nu_b, beta) density; any other pair draws by inverting its
    CDF tabulated over 2048 midpoint cells of the split's support, and Z is
    the sum over 4096 such cells.  ``gamma_shapes`` maps each type id to its
    density's ``gamma_shape()``.
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
        self.gamma_shapes = {tid: fam.gamma_shape() for tid, fam in self.densities.items()}
        # per output (a, b): rho_a, rho_b, then the Beta shapes (nu_a, nu_b) and the sum
        # law Gamma(nu_a + nu_b, beta) for two gamma laws of one rate, else None and None
        self._laws = {}
        for out in self.outputs:
            ga, gb = self.gamma_shapes[out.first], self.gamma_shapes[out.second]
            exact = ga is not None and gb is not None and ga[1] == gb[1]
            self._laws[out.first, out.second] = (
                self.densities[out.first],
                self.densities[out.second],
                (ga[0], gb[0]) if exact else None,
                GammaDensity(ga[0] + gb[0], ga[1]) if exact else None,
            )

    def split_pdf(self, out, e_avail, u):
        """As ``ScatteringKernel.split_pdf``; a sum that carries no mass raises
        KernelSupportError, naming the first."""
        rho_a, rho_b, _, sum_law = self._laws[out.first, out.second]
        u = np.asarray(u, dtype=float)
        if sum_law is not None:
            z = sum_law.pdf(e_avail)
        else:
            z = np.empty(np.shape(e_avail))
            for i, e in enumerate(np.ravel(e_avail)):  # one sum at a time: no (sums x 4096) array
                _, _, h, w = _midpoint_grid(rho_a, rho_b, e, 4096)
                z.flat[i] = np.sum(w) * h
        bad = np.flatnonzero(z <= 0.0)
        if bad.size:
            raise KernelSupportError(
                f"conditioning on total energy {np.ravel(e_avail)[bad[0]]} carries no mass for "
                "this density pair"
            )
        vals = rho_a.pdf(u) * rho_b.pdf(e_avail - u) / z
        return np.where((u >= 0) & (u <= e_avail), vals, 0.0)

    def split_sample(self, out, e_avail, rng):
        if e_avail < 0:
            raise ValidationError(f"total kinetic energy must be >= 0, got {e_avail}")
        if e_avail == 0.0:
            return 0.0
        rho_a, rho_b, shapes, _ = self._laws[out.first, out.second]
        if shapes is not None:
            return float(e_avail * rng.beta(*shapes))
        lo, hi, h, w = _midpoint_grid(rho_a, rho_b, e_avail, 2048)
        mass = float(w.sum()) if lo < hi else 0.0
        if mass <= 0.0:
            raise KernelSupportError(
                f"conditioning on total energy {e_avail} carries no mass for this density pair"
            )
        cum = np.concatenate([[0.0], np.cumsum(w)]) / mass
        u = rng.uniform()
        k = min(max(int(np.searchsorted(cum, u, side="right") - 1), 0), w.size - 1)
        frac = (u - cum[k]) / max(cum[k + 1] - cum[k], 1e-300)
        return float(lo + (k + frac) * h)

    def _split_support(self, out, e_avail):
        return _split_support(self.densities[out.first], self.densities[out.second], e_avail)

    def _refuse_massless_splits(self, pair, types: TypeTable, field: str) -> None:
        """Refuse an output whose split has no mass at some available energy above
        max(release, 0), all of which the reactant ``pair`` meets: ``_split_support``
        has width exactly for lo_a + lo_b < e < hi_a + hi_b."""
        for out, release in zip(self.outputs, self._outcome_table(*pair, types).releases):
            rho_a, rho_b = self.densities[out.first], self.densities[out.second]
            (lo_a, hi_a), (lo_b, hi_b) = rho_a.support(), rho_b.support()
            floor, start, end = max(release, 0.0), lo_a + lo_b, hi_a + hi_b
            if start > floor or end < math.inf:
                exc = KernelSupportError(
                    f"reactant pair {pair}, output ({out.first}, {out.second}): the canonical split "
                    f"of {rho_a!r} and {rho_b!r} has no mass at the available energies above "
                    f"{floor} outside ({start}, {end})"
                )
                exc.field = field
                raise exc


# ---------------------------------------------------------------------------
# channels and network
# ---------------------------------------------------------------------------


_NO_UNARY = (0.0, {})  # the unary table entry of a type without conversions; never mutated


def _as_float(rate) -> float:
    """A rate function's value at one energy (a float, a numpy float, or a 0-d or
    size-1 array) as a Python float."""
    return float(rate) if isinstance(rate, float) else np.asarray(rate, dtype=float).item()


class BinaryChannel(_FrozenRecord):
    """A collision channel for the unordered reactant pair ``pair`` (v <= w).

    The rate is evaluated with the slot of the lower type id first; the
    kernel's outgoing pairs use the same slot convention.
    """

    _fields = ("pair", "rate", "kernel")

    def __init__(self, pair: tuple[int, int], rate: object, kernel: ScatteringKernel):
        vars(self).update(pair=pair, rate=rate, kernel=kernel)
        v, w = pair
        if v < 1 or w < 1:
            raise ValidationError("reactant type ids are 1-based")
        if v > w:
            raise ValidationError(f"reactant pair {pair} must be ordered v <= w")


class UnaryChannel(_FrozenRecord):
    _fields = ("source", "target", "rate")

    def __init__(self, source: int, target: int, rate: object):
        vars(self).update(source=source, target=target, rate=rate)
        if source < 1 or target < 1:
            raise ValidationError("type ids are 1-based")
        if source == target:
            raise ValidationError(f"unary channel {source}->{target} is a self-loop")


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
        for k, ch in enumerate(self.binary):
            v, w = ch.pair
            types.check_ids(np.array(ch.pair))
            if ch.pair in self._by_pair:
                raise ValidationError(f"duplicate binary channel for reactant pair {ch.pair}")
            self._by_pair[ch.pair] = ch
            for out in ch.kernel.outputs:
                types.check_ids(np.array([out.first, out.second]))
            if isinstance(ch.kernel, CanonicalKernel):
                ch.kernel._refuse_massless_splits(ch.pair, types, f"binary[{k}].kernel")
            if v == w:
                weights = {(o.first, o.second): o.weight for o in ch.kernel.outputs}
                for (a, b), wt in weights.items():
                    if a != b and not math.isclose(weights.get((b, a), -1.0), wt):
                        raise ValidationError(
                            f"channel {ch.pair}: outputs ({a},{b}) and ({b},{a}) need "
                            "equal weights because the input slots are exchangeable"
                        )
        # per source type: I_v, and by target w each channel's gate offset I_v - I_w
        # (the kinetic energy the conversion releases) and rate, in channel order
        self._unary_table: dict[int, tuple[float, dict]] = {}
        for ch in self.unary:
            v, w = ch.source, ch.target
            types.check_ids(np.array([v, w]))
            if v not in self._unary_table:
                self._unary_table[v] = (float(available_kinetic_energy(0.0, (v,), (), types)), {})
            chans = self._unary_table[v][1]
            if w in chans:
                raise ValidationError(f"duplicate unary channel {v}->{w}")
            chans[w] = (float(available_kinetic_energy(0.0, (v,), (w,), types)), ch.rate)

    def binary_channel(self, v: int, w: int) -> BinaryChannel | None:
        return self._by_pair.get((min(v, w), max(v, w)))

    def unary_from(self, v: int) -> list[UnaryChannel]:
        return [ch for ch in self.unary if ch.source == v]

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
        0 wherever the conversion would leave negative kinetic energy.  Both
        are evaluated from the per-type table built with the network; a float
        T gives a list of floats, equal bit for bit to the array results.
        """
        i_v, chans = self._unary_table.get(v, _NO_UNARY)
        if isinstance(t, float):
            return [
                _as_float(rate(t + i_v)) if t + gate >= 0.0 else 0.0 for gate, rate in chans.values()
            ]
        t = np.asarray(t, dtype=float)
        return [np.where(t + gate >= 0.0, rate(t + i_v), 0.0) for gate, rate in chans.values()]

    def unary_rate(self, v: int, t):
        """Total conversion rate out of a particle (v, T), feasibility-gated: the
        channels of ``unary_rates`` summed left to right (a float for a float T)."""
        return sum(self.unary_rates(v, t), 0.0 if isinstance(t, float) else np.zeros(np.shape(t)))

    def outcome_density(self, v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b):
        """Density that slot a becomes (v_out_a, u_a) and slot b becomes v_out_b.

        Slots are canonicalized internally so the value is invariant under
        exchanging (a, b) jointly in inputs and outputs.  Energies and u_a are
        shaped as in ``ScatteringKernel.outcome_density``.
        """
        ch = self.binary_channel(v_a, v_b)
        u_a = np.asarray(u_a, dtype=float)
        if ch is not None and (v_a, v_b) == ch.pair:
            return ch.kernel.outcome_density(
                v_a, t_a, v_b, t_b, v_out_a, u_a, v_out_b, self.types
            )
        # reversed slot order: the slot-a energy is the complement of the
        # kernel's first outgoing energy, a measure-preserving change of variable
        k = None if ch is None else ch.kernel._index.get((v_out_b, v_out_a))
        if k is None:
            rows = np.shape(np.add(t_a, t_b))
            return np.zeros(rows + u_a.shape[len(rows):])
        e = np.add(t_a, t_b) + ch.kernel._outcome_table(v_b, v_a, self.types).releases[k]
        e = np.reshape(e, np.shape(e) + (1,) * (u_a.ndim - np.ndim(e)))
        vals = ch.kernel.outcome_density(
            v_b, t_b, v_a, t_a, v_out_b, e - u_a, v_out_a, self.types
        )
        return np.where((u_a >= 0) & (u_a <= e), vals, 0.0)

    def kernel_normalization_errors(self, n_samples: int, rng, scale: float = 1.0) -> dict:
        """Worst |quadrature of the outcome law - its mass| per binary channel; the
        mass is 1 where an outgoing pair is feasible and 0 where none is.

        Each channel is checked at ``n_samples`` input pairs whose energies
        are drawn i.i.d. exponential with mean ``scale``, all in one array;
        keys are reactant pairs.  The result equals that of drawing and
        checking one pair at a time with ``check_normalization``; a channel
        whose quadrature is NaN anywhere reads NaN.
        """
        errors = {}
        for ch in self.binary:
            v, w = ch.pair
            t, tp = rng.exponential(scale, size=(n_samples, 2)).T
            totals, feasible = ch.kernel._quadrature_totals(v, t, w, tp, self.types)
            # the largest error against a mass of 1 (True) or 0; a NaN total makes it NaN
            errors[ch.pair] = float(np.max(np.abs(totals - feasible), initial=0.0))
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
