"""Numerical checks of the equilibrium structure of the collision dynamics.

Everything here evaluates a closed-form identity or a balance condition at
finitely many points and reports the worst residual: detailed balance,
local-equilibrium and fixed-point conditions, relative entropy and its
monotonicity along solver runs, stationary type probabilities of the unary
models, cycle-reversibility of finite chains, and the goodness-of-fit
plumbing used by the statistical acceptance runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy import special

from .core import KernelSupportError, KineticsError, ValidationError
from .densities import DensityFamily, ShiftedGamma
from .reactions import ReactionNetwork
from .solver import DensityGrid

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
    "canonical_kernel_density",
    "convolution_density",
    "convolution_equality_check",
    "admissible_pair_check",
    "two_type_unary_stationary",
    "unary_energy_dependent_stationary",
    "shifted_gamma_reversibility_residual",
    "vector_particle_stationary",
    "pair_reversibility_residual",
    "kolmogorov_cycle_check",
    "measure_transform",
    "ks_distance",
]


@dataclass(frozen=True)
class TypedDensity:
    """A normalized measure on types x energies: weight_v * rho_v(x)."""

    families: tuple
    weights: tuple = None

    def __post_init__(self):
        fams = tuple(self.families)
        object.__setattr__(self, "families", fams)
        if self.weights is None:
            w = tuple([1.0 / len(fams)] * len(fams)) if len(fams) > 1 else (1.0,)
        else:
            w = tuple(float(x) for x in self.weights)
        if len(w) != len(fams):
            raise ValidationError("need one weight per type")
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-8:
            raise ValidationError("type weights must be a probability vector")
        object.__setattr__(self, "weights", w)

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
    conserving manifold; ``conserves`` tests membership).
    """

    def __init__(self, network: ReactionNetwork):
        self.network = network
        self.types = network.types

    def total_energy_of(self, gamma, gamma1) -> float:
        (v, x), (v1, x1) = gamma, gamma1
        ie = self.types.internal_energies
        return float(x + x1 + ie[v - 1] + ie[v1 - 1])

    def conserves(self, gamma, gamma1, gamma_p, gamma1_p, tol: float = 1e-9) -> bool:
        a = self.total_energy_of(gamma, gamma1)
        b = self.total_energy_of(gamma_p, gamma1_p)
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def value(self, gamma, gamma1, gamma_p, gamma1_p) -> float:
        (v, x), (v1, x1) = gamma, gamma1
        (vp, xp), (v1p, x1p) = gamma_p, gamma1_p
        rate = float(np.asarray(self.network.pair_rate(vp, xp, v1p, x1p)))
        if rate == 0.0:
            return 0.0
        dens = float(
            np.asarray(self.network.outcome_density(vp, xp, v1p, x1p, v, x, v1))
        )
        return rate * dens


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
    channel's feasible outputs in rotation.  Deterministic in ``seed``.
    """
    from scipy.stats import qmc  # costs ~0.5 s to import, and only this function uses it

    if not network.binary:
        raise ValidationError("network has no binary channels to sample")
    ie = network.types.internal_energies
    halton = qmc.Halton(d=3, seed=seed)
    pts = halton.random(n)
    sources = []
    for ch in network.binary:
        v, w = ch.pair
        sources.append((v, w, ch))
        if v != w:
            sources.append((w, v, ch))
    quads = []
    for k in range(n):
        u1, u2, u3 = pts[k]
        vp, v1p, ch = sources[k % len(sources)]
        xp = -energy_scale * math.log1p(-min(u1, 1.0 - 1e-12))
        x1p = -energy_scale * math.log1p(-min(u2, 1.0 - 1e-12))
        outs = ch.kernel.outputs
        for shift in range(len(outs)):
            o = outs[(k + shift) % len(outs)]
            first, second = (o.first, o.second) if (vp, v1p) == ch.pair else (o.second, o.first)
            e = (
                xp
                + x1p
                + ie[vp - 1]
                + ie[v1p - 1]
                - ie[first - 1]
                - ie[second - 1]
            )
            if e < 0:
                continue
            x = u3 * e
            quads.append(((first, x), (second, e - x), (vp, xp), (v1p, x1p)))
            break
    if include_corners:
        for vp, v1p, ch in sources:
            for xp, x1p, u in ((0.0, energy_scale, 0.5), (energy_scale, energy_scale, 0.0), (energy_scale, energy_scale, 1.0)):
                o = ch.kernel.outputs[0]
                first, second = (o.first, o.second) if (vp, v1p) == ch.pair else (o.second, o.first)
                e = xp + x1p + ie[vp - 1] + ie[v1p - 1] - ie[first - 1] - ie[second - 1]
                if e < 0:
                    continue
                x = u * e
                quads.append(((first, x), (second, e - x), (vp, xp), (v1p, x1p)))
    return quads


@dataclass
class ResidualReport:
    max_residual: float
    n_evaluated: int
    n_skipped: int
    worst_point: object = None

    def __float__(self):
        return self.max_residual


def detailed_balance_residual(
    w: CollisionRateDensity, f0: TypedDensity, quadruples, conservation_tol: float = 1e-9
) -> ResidualReport:
    """Worst |w(., .|.', .') f0' f0'' - w(.', .'|., .) f0 f0'| over the samples.

    Quadruples off the energy-conservation manifold are skipped and counted;
    w vanishes there by construction.
    """
    worst, worst_pt, skipped, used = 0.0, None, 0, 0
    for quad in quadruples:
        g, g1, gp, g1p = quad
        if not w.conserves(g, g1, gp, g1p, tol=conservation_tol):
            skipped += 1
            continue
        used += 1
        fwd = w.value(g, g1, gp, g1p) * f0.pdf(*gp) * f0.pdf(*g1p)
        bwd = w.value(gp, g1p, g, g1) * f0.pdf(*g) * f0.pdf(*g1)
        r = abs(fwd - bwd)
        if r > worst:
            worst, worst_pt = r, quad
    return ResidualReport(worst, used, skipped, worst_pt)


def _le_integral(
    w: CollisionRateDensity, f: TypedDensity, gamma, gamma1, n_quad: int
) -> float:
    """Outgoing-integrated balance at (gamma, gamma1): gain minus loss."""
    net = w.network
    ie = net.types.internal_energies
    n_types = net.types.count
    (v, x), (v1, x1) = gamma, gamma1
    total_e = w.total_energy_of(gamma, gamma1)
    acc = 0.0
    f_here = f.pdf(v, x) * f.pdf(v1, x1)
    for vp in range(1, n_types + 1):
        for v1p in range(1, n_types + 1):
            e = total_e - ie[vp - 1] - ie[v1p - 1]
            if e < 0:
                continue
            h = e / n_quad if n_quad else 0.0
            xs = (np.arange(n_quad) + 0.5) * h
            ys = e - xs
            # gain: rate of the primed pair times the kernel density of (gamma, gamma1);
            # the kernel factor depends on the primed energies only through their sum
            rate_vec = np.asarray(net.pair_rate(vp, xs, v1p, ys), dtype=float)
            if np.any(rate_vec > 0) and e > 0:
                dens = float(
                    np.asarray(net.outcome_density(vp, xs[0], v1p, ys[0], v, x, v1))
                )
                if dens:
                    fvals = f.pdf(vp, xs) * f.pdf(v1p, ys)
                    acc += float(np.sum(rate_vec * fvals)) * h * dens
            # loss: rate of (gamma, gamma1) times the kernel mass into the primed pair
            rate_here = float(np.asarray(net.pair_rate(v, x, v1, x1)))
            if rate_here > 0 and f_here > 0 and e > 0:
                dens_vec = np.asarray(
                    net.outcome_density(v, x, v1, x1, vp, xs, v1p), dtype=float
                )
                acc -= rate_here * f_here * float(np.sum(dens_vec)) * h
    return acc


def local_equilibrium_residual(
    w: CollisionRateDensity, f: TypedDensity, pairs, n_quad: int = 512
) -> ResidualReport:
    """Worst integrated flux imbalance over the supplied (gamma, gamma1) pairs."""
    worst, worst_pt, used = 0.0, None, 0
    for gamma, gamma1 in pairs:
        used += 1
        r = abs(_le_integral(w, f, gamma, gamma1, n_quad))
        if r > worst:
            worst, worst_pt = r, (gamma, gamma1)
    return ResidualReport(worst, used, 0, worst_pt)


def fixed_point_residual(
    w: CollisionRateDensity,
    f: TypedDensity,
    gammas,
    n_quad: int = 256,
    partner_cap: float = None,
    n_partner: int = 128,
) -> ResidualReport:
    """Worst collision-operator value at the supplied gamma points.

    Integrates the pairwise imbalance over the partner state; a pass at the
    pair level implies a pass here at compatible tolerance.
    """
    net = w.network
    n_types = net.types.count
    if partner_cap is None:
        partner_cap = 40.0
    h1 = partner_cap / n_partner
    x1s = (np.arange(n_partner) + 0.5) * h1
    worst, worst_pt = 0.0, None
    for gamma in gammas:
        acc = 0.0
        for v1 in range(1, n_types + 1):
            for x1 in x1s:
                acc += _le_integral(w, f, gamma, (v1, float(x1)), n_quad) * h1
        r = abs(acc)
        if r > worst:
            worst, worst_pt = r, gamma
    return ResidualReport(worst, len(gammas), 0, worst_pt)


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


@dataclass
class EntropyCheck:
    min_delta: float
    passed: bool
    entropies: list


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
    """Worst |delta log f - delta log f0| over quadruples in the jump support."""
    worst, worst_pt, used, skipped = 0.0, None, 0, 0
    for quad in quadruples:
        g, g1, gp, g1p = quad
        if w is not None and w.value(g, g1, gp, g1p) == 0.0 and w.value(gp, g1p, g, g1) == 0.0:
            skipped += 1
            continue
        vals_f = [f.pdf(*g), f.pdf(*g1), f.pdf(*gp), f.pdf(*g1p)]
        vals_f0 = [f0.pdf(*g), f0.pdf(*g1), f0.pdf(*gp), f0.pdf(*g1p)]
        if any(v <= 0 for v in vals_f + vals_f0):
            raise ValidationError(f"nonpositive density at sampled quadruple {quad}")
        used += 1
        d_f = math.log(vals_f[2]) + math.log(vals_f[3]) - math.log(vals_f[0]) - math.log(vals_f[1])
        d_f0 = math.log(vals_f0[2]) + math.log(vals_f0[3]) - math.log(vals_f0[0]) - math.log(vals_f0[1])
        r = abs(d_f - d_f0)
        if r > worst:
            worst, worst_pt = r, quad
    return ResidualReport(worst, used, skipped, worst_pt)


# ---------------------------------------------------------------------------
# kernels, convolutions, admissibility
# ---------------------------------------------------------------------------


def canonical_kernel_density(rho_v: DensityFamily, rho_w: DensityFamily, total: float, x):
    """Density of the first coordinate of an independent pair given its sum."""
    from .reactions import canonical_split_pdf

    return canonical_split_pdf(rho_v, rho_w, total, x)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(240)


def convolution_density(rho_v: DensityFamily, rho_w: DensityFamily, total: float) -> float:
    """Density of the sum of independent draws, by Gauss-Legendre quadrature."""
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if total == 0.0:
        return 0.0
    y = 0.5 * total * (_GL_NODES + 1.0)
    wts = 0.5 * total * _GL_WEIGHTS
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
# stationary type probabilities of the unary models
# ---------------------------------------------------------------------------


def two_type_unary_stationary(
    a12: float, a21: float, rho1: DensityFamily, delta_i: float
) -> tuple[float, float]:
    """Stationary type weights (pi1, pi2) of the single-particle two-type chain.

    Balance: pi1 * Y1 * a12 = pi2 * a21 with Y1 the mass of rho1 above the
    internal-energy gap.
    """
    if a12 < 0 or a21 < 0:
        raise ValidationError("rates must be >= 0")
    if a12 == 0 and a21 == 0:
        raise ValidationError("both rates zero: the chain is reducible")
    y1 = 1.0 - float(rho1.cdf(delta_i))
    pi1 = a21 / (a21 + y1 * a12)
    return (pi1, 1.0 - pi1)


def _check_discrete_reversibility(p: np.ndarray, b: np.ndarray, what: str) -> None:
    n = p.size
    for v in range(n):
        for w in range(v + 1, n):
            lhs = p[v] * b[v, w]
            rhs = p[w] * b[w, v]
            if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-300):
                raise ValidationError(
                    f"{what}: weights are not reversible for rates on pair ({v + 1}, {w + 1})"
                )


def unary_energy_dependent_stationary(
    p, b, nu, internal, beta: float, n_check: int = 64
) -> np.ndarray:
    """Stationary type probabilities of the energy-dependent conversion model.

    Rates are b_vw * (U - I_w)^(nu_w - 1) above threshold; full-energy laws
    are the shifted gamma densities.  The returned vector is proportional to
    p_v * exp(-beta I_v) * Gamma(nu_v) * beta^(-nu_v) and is verified to
    balance every conversion pair pointwise in U before being returned.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    nu = np.asarray(nu, dtype=float)
    internal = np.asarray(internal, dtype=float)
    n = p.size
    if b.shape != (n, n) or nu.size != n or internal.size != n:
        raise ValidationError("p, b, nu, internal must agree in size")
    if beta <= 0 or np.any(nu <= 0) or np.any(p <= 0) or np.any(b < 0):
        raise ValidationError("need beta > 0, nu > 0, p > 0 and b >= 0")
    _check_discrete_reversibility(p, b, "unary model")
    log_pi = np.log(p) - beta * internal + special.gammaln(nu) - nu * np.log(beta)
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    residual = shifted_gamma_reversibility_residual(pi, b, nu, internal, beta, n_check)
    if residual > 1e-10:
        raise KineticsError(
            f"stationary weights fail the pointwise balance identity: residual {residual:.3e}"
        )
    return pi


def shifted_gamma_reversibility_residual(
    pi, b, nu, internal, beta: float, n_check: int = 64
) -> float:
    """Worst relative pointwise-balance violation over pairs and energies."""
    pi = np.asarray(pi, dtype=float)
    b = np.asarray(b, dtype=float)
    nu = np.asarray(nu, dtype=float)
    internal = np.asarray(internal, dtype=float)
    n = pi.size
    worst = 0.0
    for v in range(n):
        for w in range(n):
            if v == w or (b[v, w] == 0 and b[w, v] == 0):
                continue
            lo = max(internal[v], internal[w])
            us = lo + np.linspace(0.05, 8.0, n_check) / beta
            f_v = ShiftedGamma(nu[v], beta, internal[v]).pdf(us)
            f_w = ShiftedGamma(nu[w], beta, internal[w]).pdf(us)
            a_vw = np.power(us - internal[w], nu[w] - 1.0) * b[v, w]
            a_wv = np.power(us - internal[v], nu[v] - 1.0) * b[w, v]
            lhs = pi[v] * f_v * a_vw
            rhs = pi[w] * f_w * a_wv
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


@dataclass(frozen=True)
class PairReactionSpec:
    """A binary type reaction (v, w) -> (v_out, w_out) with pair-chain rates."""

    v: int
    w: int
    v_out: int
    w_out: int
    b_forward: float
    b_backward: float


def vector_particle_stationary(p, nu, internal, beta: float, channels, n_check: int = 64):
    """Stationary type probabilities of the factorized pair-reaction model.

    Every channel must preserve the summed shape parameter, and the pair
    chain with weights p_v p_w must be reversible; the result is
    proportional to p_v * exp(-beta I_v) * beta^(-nu_v) and is verified to
    balance every channel pointwise in the pair energy.
    """
    p = np.asarray(p, dtype=float)
    nu = np.asarray(nu, dtype=float)
    internal = np.asarray(internal, dtype=float)
    if beta <= 0 or np.any(nu <= 0) or np.any(p <= 0):
        raise ValidationError("need beta > 0, nu > 0 and p > 0")
    for ch in channels:
        lhs = nu[ch.v - 1] + nu[ch.w - 1]
        rhs = nu[ch.v_out - 1] + nu[ch.w_out - 1]
        if abs(lhs - rhs) > 1e-12 * max(lhs, rhs):
            raise ValidationError(
                f"channel ({ch.v},{ch.w})->({ch.v_out},{ch.w_out}) changes the "
                f"summed shape parameter: {lhs} vs {rhs}"
            )
        fl = p[ch.v - 1] * p[ch.w - 1] * ch.b_forward
        bl = p[ch.v_out - 1] * p[ch.w_out - 1] * ch.b_backward
        if abs(fl - bl) > 1e-9 * max(abs(fl), abs(bl), 1e-300):
            raise ValidationError(
                f"pair chain not reversible on channel ({ch.v},{ch.w})->({ch.v_out},{ch.w_out})"
            )
    log_pi = np.log(p) - beta * internal - nu * np.log(beta)
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    residual = pair_reversibility_residual(pi, nu, internal, beta, channels, n_check)
    if residual > 1e-10:
        raise KineticsError(
            f"factorized weights fail the pair balance identity: residual {residual:.3e}"
        )
    return pi


def pair_reversibility_residual(pi, nu, internal, beta, channels, n_check: int = 64) -> float:
    """Worst relative pair-balance violation over channels and pair energies."""
    pi = np.asarray(pi, dtype=float)
    nu = np.asarray(nu, dtype=float)
    internal = np.asarray(internal, dtype=float)
    worst = 0.0
    for ch in channels:
        i_fwd = internal[ch.v - 1] + internal[ch.w - 1]
        i_bwd = internal[ch.v_out - 1] + internal[ch.w_out - 1]
        nu_fwd = nu[ch.v - 1] + nu[ch.w - 1]
        nu_bwd = nu[ch.v_out - 1] + nu[ch.w_out - 1]
        lo = max(i_fwd, i_bwd)
        us = lo + np.linspace(0.05, 8.0, n_check) / beta
        f_i = ShiftedGamma(nu_fwd, beta, i_fwd).pdf(us)
        f_j = ShiftedGamma(nu_bwd, beta, i_bwd).pdf(us)
        a_ij = np.power(us - i_bwd, nu_bwd - 1.0) * ch.b_forward
        a_ji = np.power(us - i_fwd, nu_fwd - 1.0) * ch.b_backward
        lhs = pi[ch.v - 1] * pi[ch.w - 1] * f_i * a_ij
        rhs = pi[ch.v_out - 1] * pi[ch.w_out - 1] * f_j * a_ji
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


# ---------------------------------------------------------------------------
# finite-chain reversibility
# ---------------------------------------------------------------------------


@dataclass
class DiscreteChainSpec:
    """A finite-state chain given by its off-diagonal rate matrix."""

    rates: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
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


@dataclass
class CycleCheckResult:
    passed: bool
    worst_cycle: tuple
    worst_ratio: float
    cycles_checked: int
    truncated: bool = False


def kolmogorov_cycle_check(
    chain: DiscreteChainSpec,
    max_cycle_len: int = 6,
    max_cycles: int = 100_000,
    rel_tol: float = 1e-10,
) -> CycleCheckResult:
    """Compare forward and backward rate products around every simple cycle.

    States in the reported worst cycle are 1-based.  Cycles with one zero
    and one nonzero product fail with an infinite ratio; cycles with both
    products zero are vacuous.  Enumeration stops at ``max_cycles``.
    """
    if max_cycle_len < 3:
        raise ValidationError("cycles need length >= 3")
    r = chain.rates
    n = chain.n_states
    checked = 0
    worst_ratio = 1.0
    worst_cycle = ()
    passed = True
    truncated = False
    for k in range(3, min(max_cycle_len, n) + 1):
        for subset in combinations(range(n), k):
            first = subset[0]
            for perm in permutations(subset[1:]):
                if perm[0] > perm[-1]:
                    continue  # fix orientation so each cycle appears once
                if checked >= max_cycles:
                    truncated = True
                    break
                cycle = (first,) + perm
                checked += 1
                fwd = 1.0
                bwd = 1.0
                for a, b in zip(cycle, cycle[1:] + (first,)):
                    fwd *= r[a, b]
                    bwd *= r[b, a]
                if fwd == 0.0 and bwd == 0.0:
                    continue
                if fwd == 0.0 or bwd == 0.0:
                    ratio = math.inf
                else:
                    ratio = max(fwd, bwd) / min(fwd, bwd)
                if abs(fwd - bwd) > rel_tol * max(fwd, bwd):
                    passed = False
                    if ratio > worst_ratio:
                        worst_ratio = ratio
                        worst_cycle = tuple(s + 1 for s in cycle)
            if truncated:
                break
        if truncated:
            break
    return CycleCheckResult(passed, worst_cycle, worst_ratio, checked, truncated)


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
