"""Numerical checks of the equilibrium structure of the collision dynamics.

Everything here evaluates a closed-form identity or a balance condition at
finitely many points and reports the worst residual: detailed balance,
local-equilibrium and fixed-point conditions, relative entropy and its
monotonicity along solver runs, cycle-reversibility of finite chains, and the
goodness-of-fit plumbing used by the statistical acceptance runs.  The
product-form invariant measure is derived from the network (a kernel that is
neither uniform nor canonical has none); the pair-reaction model stays a lemma
on restated parameters, since a type-changing collision of summed shape other
than 1 needs a rate in the pair's full energy, which no bounded binary rate
form gives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    KernelSupportError,
    KineticsError,
    ValidationError,
    _FrozenRecord,
    _Record,
    available_kinetic_energy,
)
from .densities import DensityFamily, GammaDensity, ShiftedGamma
from .reactions import ConstantUnaryRate, PowerGapRate, ReactionNetwork
from .solver import DensityGrid, _plan_support_fault

__all__ = [
    "TypedDensity",
    "CollisionRateDensity",
    "ResidualReport",
    "EntropyCheck",
    "CycleCheckResult",
    "DiscreteChainSpec",
    "PairReactionSpec",
    "sample_conserving_quadruples",
    "detailed_balance_residual",
    "local_equilibrium_residual",
    "fixed_point_residual",
    "relative_entropy",
    "entropy_monotonicity_check",
    "additive_conservation_residual",
    "convolution_density",
    "convolution_equality_check",
    "admissible_pair_check",
    "product_form_measure",
    "product_form_residual",
    "vector_particle_stationary",
    "pair_reversibility_residual",
    "kolmogorov_cycle_check",
    "measure_transform",
    "ks_distance",
]


class TypedDensity(_FrozenRecord):
    """A normalized measure on types x energies: weight_v * rho_v(x)."""

    _fields = ("families", "weights")

    def __init__(self, families: tuple, weights: tuple = None):
        fams = tuple(families)
        if weights is None:
            w = tuple([1.0 / len(fams)] * len(fams)) if len(fams) > 1 else (1.0,)
        else:
            w = tuple(float(x) for x in weights)
        if len(w) != len(fams):
            raise ValidationError("need one weight per type")
        if not all(math.isfinite(x) and x >= 0 for x in w) or abs(sum(w) - 1.0) > 1e-8:
            raise ValidationError("type weights must be a probability vector")
        vars(self).update(families=fams, weights=w)

    @property
    def n_types(self) -> int:
        return len(self.families)

    def pdf(self, type_id: int, x):
        return self.weights[type_id - 1] * self.families[type_id - 1].pdf(x)


class CollisionRateDensity:
    """Transition rate density w over energy-conserving state quadruples.

    ``value(gamma, gamma1, gamma_p, gamma1_p)`` is the rate density of the
    jump from the primed pair into (gamma, gamma1): the collision rate of
    the primed pair times the kernel density of the outcome, with the
    energy-conservation delta handled structurally (callers evaluate on the
    conserving manifold; ``conserves`` tests membership).  A state is a
    (type, energies) pair: the energies are 1-d arrays, one quadruple per
    entry, and the four types are shared.
    """

    def __init__(self, network: ReactionNetwork):
        self.network = network
        self.types = network.types

    def total_energy_of(self, gamma, gamma1):
        (v, x), (v1, x1) = gamma, gamma1
        ie = self.types.internal_energies
        return x + x1 + ie[v - 1] + ie[v1 - 1]

    def conserves(self, gamma, gamma1, gamma_p, gamma1_p, tol: float = 1e-9):
        a = self.total_energy_of(gamma, gamma1)
        b = self.total_energy_of(gamma_p, gamma1_p)
        return np.abs(a - b) <= tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))

    def value(self, gamma, gamma1, gamma_p, gamma1_p) -> np.ndarray:
        (v, x), (v1, _), (vp, xp), (v1p, x1p) = gamma, gamma1, gamma_p, gamma1_p
        rate = np.broadcast_to(
            np.asarray(self.network.pair_rate(vp, xp, v1p, x1p), dtype=float), xp.shape
        )
        vals = np.zeros(xp.shape)
        on = np.flatnonzero(rate)  # the kernel density is not evaluated where the rate is 0
        if on.size:
            dens = self.network.outcome_density(vp, xp[on], v1p, x1p[on], v, x[on], v1)
            vals[on] = rate[on] * dens
        return vals


def _scrambled_halton(n: int, seed: int) -> np.ndarray:
    """The first n points of the Halton sequence in bases 2, 3 and 5, shape (n, 3).

    Each coordinate is the radical inverse of the point's index, with every
    digit position mapped through its own permutation of the digits drawn
    from ``seed``; as many digits are kept as a double resolves, so every
    coordinate lies in [0, 1).
    """
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, 3))
    for col, base in enumerate((2, 3, 5)):
        index = np.arange(n)
        scale = 1.0
        for _ in range(int(52 / math.log2(base))):
            scale /= base
            pts[:, col] += rng.permutation(base)[index % base] * scale
            index //= base
    return pts


def sample_conserving_quadruples(
    network: ReactionNetwork,
    n: int,
    seed: int = 0,
    energy_scale: float = 1.0,
    include_corners: bool = True,
):
    """Quasi-random quadruples on the energy-conserving manifold.

    Incoming energies come from a Halton sequence pushed through an
    exponential quantile with the given scale; outgoing states use each
    channel's feasible outputs in rotation.  Each output's release comes
    from the kernel's outcome table; it is the same in both slot orders.
    Deterministic in ``seed``.
    """
    if not network.binary:
        raise ValidationError("network has no binary channels to sample")
    pts = _scrambled_halton(n, seed)
    sources = []
    for ch in network.binary:
        v, w = ch.pair
        releases = ch.kernel._outcome_table(v, w, network.types).releases
        sources.append((v, w, ch, releases))
        if v != w:
            sources.append((w, v, ch, releases))
    quads = []
    for k in range(n):
        u1, u2, u3 = pts[k]
        vp, v1p, ch, releases = sources[k % len(sources)]
        xp = -energy_scale * math.log1p(-min(u1, 1.0 - 1e-12))
        x1p = -energy_scale * math.log1p(-min(u2, 1.0 - 1e-12))
        outs = ch.kernel.outputs
        for shift in range(len(outs)):
            idx = (k + shift) % len(outs)
            o = outs[idx]
            first, second = (o.first, o.second) if (vp, v1p) == ch.pair else (o.second, o.first)
            e = xp + x1p + releases[idx]
            if e < 0:
                continue
            x = u3 * e
            quads.append(((first, x), (second, e - x), (vp, xp), (v1p, x1p)))
            break
    if include_corners:
        for vp, v1p, ch, releases in sources:
            for xp, x1p, u in ((0.0, energy_scale, 0.5), (energy_scale, energy_scale, 0.0), (energy_scale, energy_scale, 1.0)):
                o = ch.kernel.outputs[0]
                first, second = (o.first, o.second) if (vp, v1p) == ch.pair else (o.second, o.first)
                e = xp + x1p + releases[0]
                if e < 0:
                    continue
                x = u * e
                quads.append(((first, x), (second, e - x), (vp, xp), (v1p, x1p)))
    return quads


# Fixed settings of the residual checks: the relative energy-conservation tolerance of
# a detailed-balance quadruple, the midpoint nodes per outgoing split of the local-
# equilibrium and fixed-point integrals, the fixed point's partner energies (n_partner
# cells on [0, partner_cap]), and the relative tolerance of a Kolmogorov cycle.
_CONSERVATION_TOL = 1e-9
_LE_NODES = 512
_FP_NODES = 256
_PARTNER_CAP = 40.0
_N_PARTNER = 128
_CYCLE_REL_TOL = 1e-10


class ResidualReport(_Record):
    _fields = ("max_residual", "n_evaluated", "n_skipped", "worst_point")

    def __init__(
        self, max_residual: float, n_evaluated: int, n_skipped: int, worst_point: object = None
    ):
        self.max_residual = max_residual
        self.n_evaluated = n_evaluated
        self.n_skipped = n_skipped
        self.worst_point = worst_point

    def __float__(self):
        return self.max_residual


def _by_types(points):
    """Group points, each a tuple of (type, energy) states, by their types.

    Yields (indices, states): the indices of a group's points in order, and
    its states as (type, array of the points' energies) pairs.
    """
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault(tuple(state[0] for state in point), []).append(i)
    for types, idx in groups.items():
        energies = ([points[i][s][1] for i in idx] for s in range(len(types)))
        yield idx, [(t, np.array(x, dtype=float)) for t, x in zip(types, energies)]


def _report(residuals, points) -> ResidualReport:
    """The worst residual, the first strict maximum in order, and its point;
    a point whose residual is None counts as skipped."""
    worst, worst_pt, used = 0.0, None, 0
    for r, point in zip(residuals, points):
        if r is None:
            continue
        used += 1
        if r > worst:
            worst, worst_pt = r, point
    return ResidualReport(worst, used, len(points) - used, worst_pt)


def detailed_balance_residual(
    w: CollisionRateDensity, f0: TypedDensity, quadruples
) -> ResidualReport:
    """Worst |w(., .|.', .') f0' f0'' - w(.', .'|., .) f0 f0'| over the samples.

    Quadruples off the energy-conservation manifold are skipped and counted;
    w vanishes there by construction.  Quadruples that share their four types
    are evaluated as one batch.
    """
    quads = list(quadruples)
    residuals = [None] * len(quads)
    for idx, states in _by_types(quads):
        on = np.flatnonzero(w.conserves(*states, tol=_CONSERVATION_TOL))
        g, g1, gp, g1p = ((t, x[on]) for t, x in states)
        fwd = w.value(g, g1, gp, g1p) * f0.pdf(*gp) * f0.pdf(*g1p)
        bwd = w.value(gp, g1p, g, g1) * f0.pdf(*g) * f0.pdf(*g1)
        for k, r in zip(on.tolist(), np.abs(fwd - bwd).tolist()):
            residuals[idx[k]] = r
    return _report(residuals, quads)


def _le_integral(w: CollisionRateDensity, f: TypedDensity, gamma, v1: int, x1s, n_quad: int):
    """Outgoing-integrated balance at (gamma, (v1, x1)) for each x1 in the 1-d
    array x1s: gain minus loss, one value per row.

    The energy of gamma is a float or an array of one entry per row.  Each
    outgoing type pair's terms are evaluated on (rows x n_quad) node arrays,
    and every row takes the float operations of a one-point midpoint sum.
    """
    net = w.network
    n_types = net.types.count
    v, x = gamma
    x1s = np.asarray(x1s, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), x1s.shape)
    acc = np.zeros(x1s.shape)
    f_here = f.pdf(v, x) * f.pdf(v1, x1s)
    rate_here = np.broadcast_to(np.asarray(net.pair_rate(v, x, v1, x1s), dtype=float), x1s.shape)
    nodes = np.arange(n_quad) + 0.5
    for vp in range(1, n_types + 1):
        for v1p in range(1, n_types + 1):
            e = available_kinetic_energy(x + x1s, (v, v1), (vp, v1p), net.types)
            rows = np.flatnonzero(e > 0.0)
            if not rows.size:
                continue
            e_in = e[rows]
            h = e_in / n_quad
            xs = nodes * h[:, None]
            ys = e_in[:, None] - xs
            # gain: rate of the primed pair times the kernel density of (gamma, gamma1);
            # the kernel factor depends on the primed energies only through their sum.
            # The terms rate * (f f) are formed in place, to keep fewer node arrays alive.
            terms = f.pdf(vp, xs)
            terms *= f.pdf(v1p, ys)
            rate_vec = np.asarray(net.pair_rate(vp, xs, v1p, ys), dtype=float)
            terms *= rate_vec
            k = np.flatnonzero(np.any(np.broadcast_to(rate_vec > 0, xs.shape), axis=1))
            if k.size:
                dens = net.outcome_density(vp, xs[k, 0], v1p, ys[k, 0], v, x[rows[k]], v1)
                k, dens = k[dens != 0], dens[dens != 0]
                acc[rows[k]] += np.sum(terms, axis=-1)[k] * h[k] * dens
            del ys, rate_vec, terms  # free the gain's node arrays before the loss builds its own
            # loss: rate of (gamma, gamma1) times the kernel mass into the primed pair
            k = np.flatnonzero((rate_here[rows] > 0) & (f_here[rows] > 0))
            if k.size:
                r = rows[k]
                u = xs if k.size == rows.size else xs[k]
                dens_vec = net.outcome_density(v, x[r], v1, x1s[r], vp, u, v1p)
                acc[r] -= rate_here[r] * f_here[r] * np.sum(dens_vec, axis=-1) * h[k]
    return acc


def local_equilibrium_residual(w: CollisionRateDensity, f: TypedDensity, pairs) -> ResidualReport:
    """Worst integrated flux imbalance over the supplied (gamma, gamma1) pairs.

    Pairs that share their two types are integrated as one batch.
    """
    pairs = list(pairs)
    residuals = [None] * len(pairs)
    for idx, (gamma, (v1, x1)) in _by_types(pairs):
        for i, r in zip(idx, np.abs(_le_integral(w, f, gamma, v1, x1, _LE_NODES)).tolist()):
            residuals[i] = r
    return _report(residuals, pairs)


def fixed_point_residual(w: CollisionRateDensity, f: TypedDensity, gammas) -> ResidualReport:
    """Worst collision-operator value at the supplied gamma points.

    Integrates the pairwise imbalance over the partner state; a pass at the
    pair level implies a pass here at compatible tolerance.  At each point,
    the partner energies of each partner type are one batch.
    """
    n_types = w.network.types.count
    h1 = _PARTNER_CAP / _N_PARTNER
    x1s = (np.arange(_N_PARTNER) + 0.5) * h1
    residuals = []
    for gamma in gammas:
        acc = 0.0
        for v1 in range(1, n_types + 1):
            for term in (_le_integral(w, f, gamma, v1, x1s, _FP_NODES) * h1).tolist():
                acc += term  # left to right, in partner order
        residuals.append(abs(acc))
    return _report(residuals, gammas)


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def _as_type_values(obj, grid: DensityGrid) -> np.ndarray:
    if isinstance(obj, DensityGrid):
        if obj.values.shape != grid.values.shape:
            raise ValidationError("grids must share the same geometry")
        return obj.values
    if isinstance(obj, np.ndarray):
        arr = np.atleast_2d(np.asarray(obj, dtype=float))
        if arr.shape != grid.values.shape:
            raise ValidationError("value array does not match the grid shape")
        return arr
    if isinstance(obj, TypedDensity):
        x = grid.centers
        return np.stack([obj.weights[k] * obj.families[k].pdf(x) for k in range(obj.n_types)])
    if isinstance(obj, DensityFamily):
        return np.atleast_2d(obj.pdf(grid.centers))
    try:
        fams = list(obj)
    except TypeError:
        raise ValidationError(f"cannot interpret {obj!r} as per-type densities")
    x = grid.centers
    return np.stack([fam.pdf(x) for fam in fams])


def relative_entropy(f, f0, grid: DensityGrid) -> float:
    """sum_v integral f log(f0 / f); zero cells of f contribute zero.

    f and f0 may be density families (per type), raw value arrays on the
    grid cells, or DensityGrid objects.  Nonpositive f0 under positive f is
    a fault (the entropy is undefined there).
    """
    fv = _as_type_values(f, grid)
    f0v = _as_type_values(f0, grid)
    pos = fv > 0.0
    if np.any(pos & (f0v <= 0.0)):
        raise ValidationError("reference density vanishes where f is positive")
    ratio = np.ones_like(fv)
    np.divide(f0v, fv, out=ratio, where=pos)
    terms = np.zeros_like(fv)
    np.multiply(fv, np.log(ratio, where=pos, out=np.zeros_like(fv)), out=terms, where=pos)
    return float(terms.sum() * grid.h)


class EntropyCheck(_Record):
    _fields = ("min_delta", "passed", "entropies")

    def __init__(self, min_delta: float, passed: bool, entropies: list):
        self.min_delta = min_delta
        self.passed = passed
        self.entropies = entropies


def entropy_monotonicity_check(snapshots, f0, tol: float = 1e-6) -> EntropyCheck:
    """Whether relative entropy is nondecreasing along solver snapshots."""
    if len(snapshots) < 2:
        raise ValidationError("need at least two snapshots")
    entropies = [relative_entropy(g, f0, g) for _, g in snapshots]
    deltas = np.diff(entropies)
    min_delta = float(deltas.min())
    return EntropyCheck(min_delta=min_delta, passed=bool(min_delta >= -tol), entropies=entropies)


def additive_conservation_residual(
    f: TypedDensity, f0: TypedDensity, quadruples, w: CollisionRateDensity = None
) -> ResidualReport:
    """Worst |delta log f - delta log f0| over quadruples in the jump support.

    Rates and densities are evaluated per batch of quadruples that share
    their four types; the logarithms are taken one quadruple at a time.
    """
    quads = list(quadruples)
    dens = [None] * len(quads)  # the eight densities of each quadruple in the jump support
    for idx, states in _by_types(quads):
        on = np.ones(len(idx), dtype=bool)
        if w is not None:  # outside the support when both directions have rate density 0
            zero = np.flatnonzero(w.value(*states) == 0.0)
            g, g1, gp, g1p = ((t, x[zero]) for t, x in states)
            on[zero[w.value(gp, g1p, g, g1) == 0.0]] = False
        on = np.flatnonzero(on)
        cols = [d.pdf(t, x[on]).tolist() for d in (f, f0) for t, x in states]
        for i, vals in zip(on.tolist(), zip(*cols)):
            dens[idx[i]] = vals
    residuals = []
    for quad, vals in zip(quads, dens):
        if vals is None:
            residuals.append(None)
        elif any(v <= 0 for v in vals):
            raise ValidationError(f"nonpositive density at sampled quadruple {quad}")
        else:
            residuals.append(abs(_delta_log(*vals[:4]) - _delta_log(*vals[4:])))
    return _report(residuals, quads)


def _delta_log(a, a1, b, b1) -> float:
    """log b + log b1 - log a - log a1, left to right."""
    return math.log(b) + math.log(b1) - math.log(a) - math.log(a1)


# ---------------------------------------------------------------------------
# kernels, convolutions, admissibility
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 240-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(240)


def convolution_density(rho_v: DensityFamily, rho_w: DensityFamily, total: float) -> float:
    """Density of the sum of independent draws, by Gauss-Legendre quadrature."""
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if total == 0.0:
        return 0.0
    nodes, weights = _gauss_legendre()
    y = 0.5 * total * (nodes + 1.0)
    wts = 0.5 * total * weights
    return float(np.sum(rho_v.pdf(y) * rho_w.pdf(total - y) * wts))


def convolution_equality_check(rho_v, rho_w, rho_vp, rho_wp, grid) -> float:
    """Max difference of the two pair-sum densities over the supplied totals."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    diffs = [
        abs(convolution_density(rho_v, rho_w, t) - convolution_density(rho_vp, rho_wp, t))
        for t in grid
    ]
    return float(max(diffs))


def admissible_pair_check(
    rho1: DensityFamily, rho2: DensityFamily, delta_i: float, grid
) -> float:
    """Residual of: shifting rho1 by the gap and conditioning reproduces rho2."""
    if delta_i < 0:
        raise ValidationError(f"internal-energy gap must be >= 0, got {delta_i}")
    tail = 1.0 - float(rho1.cdf(delta_i))
    if tail <= 0.0:
        raise KernelSupportError(
            f"density has no mass above the gap {delta_i}; conditioning is void"
        )
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    return float(np.max(np.abs(rho1.pdf(grid + delta_i) / tail - rho2.pdf(grid))))


# ---------------------------------------------------------------------------
# the product-form measure of a network, and the pair-reaction lemma
# ---------------------------------------------------------------------------


def _pair_link(w, nu, internal, ch) -> tuple:
    """The link of a pair channel: weight w_v w_w, shape and offset summed over the pair."""
    def state(v, u, rate):
        return (w[v - 1] * w[u - 1], nu[v - 1] + nu[u - 1], internal[v - 1] + internal[u - 1], rate)

    name = f"channel ({ch.v},{ch.w})->({ch.v_out},{ch.w_out})"
    return (name, state(ch.v, ch.w, ch.b_forward), state(ch.v_out, ch.w_out, ch.b_backward))


def _check_reversible(link, message: str) -> None:
    """Raise ValidationError(message naming the link) unless w_a b_ab = w_b b_ba."""
    name, (w_a, _, _, b_ab), (w_b, _, _, b_ba) = link
    lhs, rhs = w_a * b_ab, w_b * b_ba
    if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-300):
        raise ValidationError(message.format(name))


def _balance_residual(links, beta: float, n_check: int) -> float:
    """Worst relative violation, over links and energies U above both offsets, of

        w_a f_a(U) b_ab (U - I_b)^(nu_b - 1) = w_b f_b(U) b_ba (U - I_a)^(nu_a - 1)

    with f = ShiftedGamma(nu, beta, I); the identity is symmetric in a and b.
    """
    worst = 0.0
    for _, (w_a, nu_a, i_a, b_ab), (w_b, nu_b, i_b, b_ba) in links:
        us = max(i_a, i_b) + np.linspace(0.05, 8.0, n_check) / beta
        lhs = w_a * ShiftedGamma(nu_a, beta, i_a).pdf(us) * (np.power(us - i_b, nu_b - 1.0) * b_ab)
        rhs = w_b * ShiftedGamma(nu_b, beta, i_b).pdf(us) * (np.power(us - i_a, nu_a - 1.0) * b_ba)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def _normalized_and_verified(log_pi, residual, failure: str) -> np.ndarray:
    """exp(log_pi) normalized, once ``residual`` of it is at most 1e-10."""
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    worst = residual(pi)
    if worst > 1e-10:
        raise KineticsError(f"{failure}: residual {worst:.3e}")
    return pi


def _potentials(n: int, links) -> tuple[list, list]:
    """(c, parent): c_v b_vw = c_w b_wv over a spanning forest of ``links`` (v, w, b_vw,
    b_wv, 0-based), c = 1 at each class's lowest state, whose parent is None."""
    c, parent = [None] * n, [None] * n
    while None in c:
        c[c.index(None)] = 1.0  # the lowest state of a class, then c_w = c_v b_vw / b_wv
        grew = True
        while grew:  # a sweep that sets nothing leaves every value as it is
            grew = False
            for v, w, b_vw, b_wv in links:
                if c[w] is None and c[v] is not None:
                    c[w], parent[w], grew = c[v] * b_vw / b_wv, v, True
                elif c[v] is None and c[w] is not None:
                    c[v], parent[v], grew = c[w] * b_wv / b_vw, w, True
    return c, parent


def _product_form(network: ReactionNetwork):
    """(nu, c, pairs): each type's gamma shape and weight factor, and one
    (name, v, w, b_vw, b_wv) per pair of types v < w (0-based) joined by
    conversions; ValidationError names the channel or type that breaks the form."""
    shapes = {}  # type id -> (nu, the channel that fixed it)

    def fix(tid, nu, where):
        first, by = shapes.setdefault(tid, (nu, where))
        if not math.isclose(first, nu, rel_tol=1e-12):  # nu from an exponent nu - 1 may round
            raise ValidationError(f"{where}: gives type {tid} shape {nu}, but {by} gives it {first}")

    for ch in network.binary:
        where = f"reactant pair {ch.pair}"
        fault = _plan_support_fault(ch)
        if fault is not None:
            raise ValidationError(f"{where}: {fault}")
        uniform = ch.kernel.kind == "uniform"
        for o in ch.kernel.outputs:
            if sorted((o.first, o.second)) != list(ch.pair):
                raise ValidationError(f"{where}: output ({o.first}, {o.second}) changes types")
            for tid in (o.first, o.second):
                fix(tid, 1.0 if uniform else ch.kernel.densities[tid].gamma_shape()[0], where)
    internal = network.types.internal_energies
    b = {}
    for ch in network.unary:
        where, rate, i_w = f"unary channel {ch.source}->{ch.target}", ch.rate, internal[ch.target - 1]
        if isinstance(rate, ConstantUnaryRate):
            shape, b[ch.source, ch.target] = 1.0, rate.value
        elif isinstance(rate, PowerGapRate) and rate.threshold == i_w and rate.exponent > -1.0:
            shape, b[ch.source, ch.target] = rate.exponent + 1.0, rate.b
        else:
            raise ValidationError(f"{where}: rate {rate!r} is not constant, nor power_gap with "
                                  f"threshold I_target = {i_w} and exponent above -1")
        fix(ch.target, shape, where)
    for (v, w), b_vw in b.items():
        if b_vw > 0 and not b.get((w, v), 0.0) > 0:
            raise ValidationError(f"unary channel {v}->{w}: has no reverse channel {w}->{v}")
    n = network.types.count
    missing = set(range(1, n + 1)) - set(shapes)
    if missing:
        raise ValidationError(f"type {min(missing)}: no channel fixes its kinetic law")
    nu = [shapes[tid][0] for tid in range(1, n + 1)]
    pairs = [
        (f"conversions {v}->{w} and {w}->{v}", v - 1, w - 1, b_vw, b[w, v])
        for (v, w), b_vw in sorted(b.items()) if v < w and b_vw > 0
    ]
    c, _ = _potentials(n, [link[1:] for link in pairs])
    for name, v, w, b_vw, b_wv in pairs:
        if not math.isclose(c[v] * b_vw, c[w] * b_wv, rel_tol=1e-9):
            raise ValidationError(f"{name}: break c_v b_vw = c_w b_wv around a cycle of conversions")
    return nu, c, pairs


def product_form_measure(network: ReactionNetwork, beta: float, n_check: int = 64) -> TypedDensity:
    """The product-form invariant measure of ``network``: kinetic laws Gamma(nu_v, beta)
    and type weights proportional to c_v exp(-beta I_v) Gamma(nu_v) beta^(-nu_v), with
    nu_v fixed by the kernels and conversion rates, and c_v b_vw = c_w b_wv over the
    conversions, c = 1 at the lowest type of each class they join (README: the rules).
    A network without one raises ValidationError naming the channel or type; the
    weights are verified to balance pointwise before they are returned."""
    nu, c, pairs = _product_form(network)
    laws = tuple(GammaDensity(x, beta) for x in nu)  # refuses a beta that is not positive
    log_gamma = np.array([math.lgamma(x) for x in nu])
    log_pi = np.log(c) - beta * network.types.internal_energies + log_gamma - np.multiply(nu, np.log(beta))
    pi = _normalized_and_verified(
        log_pi, lambda pi: product_form_residual(network, pi, beta, n_check),
        "the derived weights fail the pointwise balance identity",
    )
    return TypedDensity(laws, tuple(pi))


def product_form_residual(network: ReactionNetwork, weights, beta: float, n_check: int = 64) -> float:
    """Worst relative pointwise-balance violation of type ``weights`` with the
    network's kinetic laws Gamma(nu_v, beta), over its conversion pairs."""
    nu, _, pairs = _product_form(network)
    ie = network.types.internal_energies
    links = [
        (name, (weights[v], nu[v], ie[v], b_vw), (weights[w], nu[w], ie[w], b_wv))
        for name, v, w, b_vw, b_wv in pairs
    ]
    return _balance_residual(links, beta, n_check)


class PairReactionSpec(_FrozenRecord):
    """A binary type reaction (v, w) -> (v_out, w_out) with pair-chain rates."""

    _fields = ("v", "w", "v_out", "w_out", "b_forward", "b_backward")

    def __init__(
        self, v: int, w: int, v_out: int, w_out: int, b_forward: float, b_backward: float
    ):
        vars(self).update(
            v=v, w=w, v_out=v_out, w_out=w_out, b_forward=b_forward, b_backward=b_backward
        )


def vector_particle_stationary(p, nu, internal, beta: float, channels, n_check: int = 64):
    """Stationary type probabilities of the factorized pair-reaction model.

    Every channel must preserve the summed shape parameter, and the pair
    chain with weights p_v p_w must be reversible; the result is
    proportional to p_v * exp(-beta I_v) * beta^(-nu_v) and is verified to
    balance every channel pointwise in the pair energy.
    """
    p, nu, internal = (np.asarray(a, dtype=float) for a in (p, nu, internal))
    if beta <= 0 or np.any(nu <= 0) or np.any(p <= 0):
        raise ValidationError("need beta > 0, nu > 0 and p > 0")
    for ch in channels:
        name, (_, lhs, _, _), (_, rhs, _, _) = link = _pair_link(p, nu, internal, ch)
        if abs(lhs - rhs) > 1e-12 * max(lhs, rhs):
            raise ValidationError(f"{name} changes the summed shape parameter: {lhs} vs {rhs}")
        _check_reversible(link, "pair chain not reversible on {}")
    log_pi = np.log(p) - beta * internal - nu * np.log(beta)
    return _normalized_and_verified(
        log_pi, lambda pi: pair_reversibility_residual(pi, nu, internal, beta, channels, n_check),
        "factorized weights fail the pair balance identity",
    )


def pair_reversibility_residual(pi, nu, internal, beta, channels, n_check: int = 64) -> float:
    """Worst relative pair-balance violation over channels and pair energies."""
    pi, nu, internal = (np.asarray(a, dtype=float) for a in (pi, nu, internal))
    return _balance_residual([_pair_link(pi, nu, internal, ch) for ch in channels], beta, n_check)


# ---------------------------------------------------------------------------
# finite-chain reversibility
# ---------------------------------------------------------------------------


class DiscreteChainSpec(_Record):
    """A finite-state chain given by its off-diagonal rate matrix."""

    _fields = ("rates",)

    def __init__(self, rates: np.ndarray):
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValidationError("rate matrix must be square")
        if np.any(np.diag(r) != 0):
            raise ValidationError("rate matrix must have a zero diagonal")
        if np.any(r < 0) or not np.all(np.isfinite(r)):
            raise ValidationError("rates must be finite and >= 0")
        self.rates = r

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]


class CycleCheckResult(_Record):
    _fields = ("passed", "worst_cycle", "worst_ratio", "cycles_checked")

    def __init__(self, passed: bool, worst_cycle: tuple, worst_ratio: float, cycles_checked: int):
        self.passed = passed
        self.worst_cycle = worst_cycle
        self.worst_ratio = worst_ratio
        self.cycles_checked = cycles_checked


def _basis_cycle(parent, i: int, j: int) -> tuple:
    """The 1-based cycle that the pair i < j closes over the forest ``parent``, lowest
    state first and second below the last; (i, j) alone if they lie in two classes."""
    path_i, path_j = [i], [j]
    while parent[path_i[-1]] is not None:
        path_i.append(parent[path_i[-1]])
    while path_j[-1] not in path_i and parent[path_j[-1]] is not None:
        path_j.append(parent[path_j[-1]])
    if path_j[-1] not in path_i:
        return (i + 1, j + 1)
    cycle = path_i[: path_i.index(path_j[-1])] + path_j[::-1]
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    return tuple(s + 1 for s in (cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]))


def kolmogorov_cycle_check(chain: DiscreteChainSpec) -> CycleCheckResult:
    """Kolmogorov's criterion, exact at any size: potentials c_i r_ij = c_j r_ji over
    the two-way rate pairs, as for the product-form weights, and one basis cycle per
    pair off their spanning forest, of forward/backward ratio c_i r_ij / (c_j r_ji).
    A one-way pair fails with ratio inf; ``cycles_checked`` counts the basis cycles."""
    n, r = chain.n_states, chain.rates.tolist()
    pairs = [(i, j, r[i][j], r[j][i]) for i, j in combinations(range(n), 2) if r[i][j] or r[j][i]]
    links = [p for p in pairs if p[2] and p[3]]
    c, parent = _potentials(n, links)
    passed, worst_ratio, worst_cycle = True, 1.0, ()
    for i, j, r_ij, r_ji in pairs:
        fwd, bwd = c[i] * r_ij, c[j] * r_ji
        if not (c[i] > 0.0 and c[j] > 0.0 and fwd + bwd < math.inf):  # NaN fails too
            raise ValidationError(f"states {i + 1}, {j + 1}: rate ratios leave the double range")
        if parent[i] == j or parent[j] == i or abs(fwd - bwd) <= _CYCLE_REL_TOL * max(fwd, bwd):
            continue  # a forest edge, balanced by its potentials, or a balanced cycle
        passed = False
        ratio = max(fwd, bwd) / min(fwd, bwd) if min(fwd, bwd) > 0 else math.inf
        if ratio > worst_ratio:
            worst_ratio, worst_cycle = ratio, _basis_cycle(parent, i, j)
    return CycleCheckResult(passed, worst_cycle, worst_ratio, len(links) - n + parent.count(None))


# ---------------------------------------------------------------------------
# measure transform and goodness of fit
# ---------------------------------------------------------------------------


def measure_transform(rho: DensityFamily, beta: float, x):
    """Monotone map carrying rho forward to the exponential law with rate beta."""
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    c = np.asarray(rho.cdf(x), dtype=float)
    if np.any(c >= 1.0):
        raise KernelSupportError("point beyond the density support: image is infinite")
    out = -np.log1p(-c) / beta
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def ks_distance(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of samples and a target CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValidationError("need at least one sample")
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
