"""Deterministic integration of the collision kinetics on an energy grid.

Densities live at cell centers x_k = (k + 1/2) h of a uniform grid on
[0, x_max].  The pair-energy distribution is a discrete convolution
C_m = h * sum_{j+j'=m} rho_j rho_{j'}, an exact midpoint rule for the
convolution integral at s_m = (m + 1) h.  The loss removes rho_a at rate
h * sum_j alpha(x_k + x_j) rho_b(x_j), quadratic in rho (the one-type
equation included); the gain spreads each s cell's outgoing mass over the
cells below its available energy, as tail sums for the uniform split.

A ``CollisionPlan`` caches everything that does not depend on rho for one
network on one grid.  ``integrate`` builds it once per solve, and each right-
hand side then costs O(V^2 n log n): V real FFTs of rho, one inverse
transform per channel's pair convolution and per type's loss correlation,
and one FFT correlation per canonical recipient.

Conservation: without internal-energy gaps the discrete generator conserves
mass and energy exactly, up to the truncation at x_max, where both leak
with the convolution tail.  Across a gap the available energy s + dI of a
uniform split lies off the grid, so its deposit is exact in mass only and
energy drifts (2.7e-5 per unit time at h = 0.05 across a gap of 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SolverBlowupError, TypeTable, ValidationError
from .reactions import BinaryChannel, ConstantRate, ReactionNetwork, UniformKernel

__all__ = [
    "DensityGrid",
    "CollisionPlan",
    "SolverConfig",
    "gain_one_type",
    "rhs_one_type",
    "rhs_multitype",
    "integrate",
    "mass",
    "mean_energy",
    "suggest_dt",
]


@dataclass
class DensityGrid:
    """Per-type cell-centered densities on a uniform energy grid."""

    x_max: float
    values: np.ndarray  # shape (V, n_cells)

    def __post_init__(self):
        if not (self.x_max > 0):
            raise ValidationError(f"x_max must be positive, got {self.x_max}")
        vals = np.atleast_2d(np.asarray(self.values, dtype=float)).copy()
        if vals.ndim != 2 or vals.shape[1] < 2:
            raise ValidationError("grid values must be (V, n_cells) with n_cells >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid values must be finite")
        if np.any(vals < -1e-12):
            raise ValidationError("grid values must be nonnegative")
        np.maximum(vals, 0.0, out=vals)
        self.values = vals

    @property
    def n_types(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]

    @property
    def h(self) -> float:
        return self.x_max / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h

    def copy(self) -> "DensityGrid":
        return DensityGrid(self.x_max, self.values.copy())

    @classmethod
    def from_families(
        cls,
        families,
        x_max: float,
        n_cells: int,
        weights=None,
    ) -> "DensityGrid":
        """Project densities onto the grid by exact cell averaging of the CDF."""
        families = list(families)
        if weights is None:
            weights = np.ones(len(families)) / len(families) if len(families) > 1 else [1.0]
        weights = np.asarray(weights, dtype=float)
        if weights.size != len(families):
            raise ValidationError("need one weight per type density")
        edges = np.linspace(0.0, x_max, n_cells + 1)
        h = edges[1] - edges[0]
        vals = np.empty((len(families), n_cells))
        for k, (fam, w) in enumerate(zip(families, weights)):
            cdf = fam.cdf(edges)
            vals[k] = w * np.diff(cdf) / h
        return cls(x_max, vals)


def mass(grid: DensityGrid) -> float:
    """Total mass summed over types: sum_v integral of rho_v."""
    return float(grid.values.sum() * grid.h)


def mean_energy(grid: DensityGrid, types: TypeTable) -> float:
    """Mass-weighted mean of internal plus kinetic energy."""
    if types.count != grid.n_types:
        raise ValidationError(
            f"grid has {grid.n_types} types but the table has {types.count}"
        )
    x = grid.centers
    total = 0.0
    for v in range(grid.n_types):
        total += float(np.sum((types.internal_energies[v] + x) * grid.values[v]) * grid.h)
    return total


# ---------------------------------------------------------------------------
# collision operator
# ---------------------------------------------------------------------------


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the real FFT handles at full speed."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _sum_rate_values(rate, sigma: np.ndarray) -> np.ndarray:
    if hasattr(rate, "of_sum"):
        return np.asarray(rate.of_sum(sigma), dtype=float)
    raise ValidationError("rate does not expose a sum-only form")


def _effective_weights(kernel, delta_i: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-s renormalized output weights; column o is w_o(s), zero when infeasible."""
    raw = np.array([o.weight for o in kernel.outputs])
    feas = sigma[:, None] + delta_i[None, :] >= 0.0
    w = feas * raw[None, :]
    norm = w.sum(axis=1)
    safe = np.where(norm > 0, norm, 1.0)
    return w / safe[:, None]


def _fast_path_ok(network: ReactionNetwork) -> bool:
    for ch in network.binary:
        if not getattr(ch.rate, "depends_on_sum_only", False):
            return False
        if ch.kernel.kind == "uniform":
            continue
        if ch.kernel.kind == "canonical":
            shapes = {}
            for tid, fam in ch.kernel.densities.items():
                g = fam.gamma_shape()
                if g is None:
                    return False
                shapes[tid] = g
            betas = {g[1] for g in shapes.values()}
            if len(betas) > 1:
                return False
            continue
        return False
    return True


def _ordered_recipients(ch):
    """Yield (recipient, partner) output roles for every ordered source expansion."""
    v, w = ch.pair
    for o in ch.kernel.outputs:
        yield o, o.first, o.second
        if v != w:
            yield o, o.second, o.first


def _one_type_network(alpha: float) -> ReactionNetwork:
    """The one-type equation as a network: constant rate alpha, uniform split."""
    return ReactionNetwork(
        TypeTable(np.array([0.0])),
        [BinaryChannel((1, 1), ConstantRate(alpha), UniformKernel([(1, 1, 1.0)]))],
    )


class _UniformGain:
    """Deposit of the uniform split at available energies e_m = s_m + dI.

    Each s cell spreads its outgoing mass q_m with density q_m / e_m over
    [0, e_m].  The fully covered cells make a tail sum over m; the partially
    covered boundary cell gets its overlap share, which keeps the deposit
    mass-exact even at threshold energies; zero available energy puts the
    whole mass at x = 0.  Cell indices and shares depend on the grid only.
    """

    def __init__(self, e: np.ndarray, h: float, n: int, leak_to_last: bool):
        pos = e > 0.0
        self.inv_e = np.where(pos, 1.0 / np.where(pos, e, 1.0), 0.0)
        kfull = np.floor(e / h)
        # e increases with m, so cell k is fully covered by every m from first[k] on
        self.first = np.searchsorted(kfull, np.arange(n), side="right")
        share = np.where(pos, np.clip(e - kfull * h, 0.0, h) * self.inv_e, 1.0) / h
        bnd = (e >= 0.0) & (kfull < n) & (share > 0.0)
        self.bnd_m = np.flatnonzero(bnd)
        self.bnd_k = kfull[bnd].astype(int)
        self.bnd_share = share[bnd]
        self.n = n
        # share of each s cell's output interval falling past the grid
        self.leak = None
        if leak_to_last:
            self.leak = np.clip(e - n * h, 0.0, None) / np.maximum(e, 1e-300) / h

    def deposit(self, q: np.ndarray) -> np.ndarray:
        tail = np.zeros(q.size + 1)
        np.cumsum((q * self.inv_e)[::-1], out=tail[-2::-1])
        out = tail[self.first]
        out += np.bincount(self.bnd_k, q[self.bnd_m] * self.bnd_share, minlength=self.n)
        if self.leak is not None:
            out[-1] += q @ self.leak
        return out


class _CanonicalGain:
    """Deposit of the canonical split rho_r(x) rho_o(e - x) / Z(e) at e_m = s_m + dI.

    On the grid e_m - x_k = (m - k + 1/2) h + dI, so the partner density is
    one lag vector G[m - k] and the deposit is an FFT correlation of G with
    q / Z.  Z is the midpoint quadrature that deposits the split, summed
    directly, which keeps each s cell's outgoing mass exact on the grid.
    """

    def __init__(self, fam_r, fam_o, e: np.ndarray, delta: float, h: float, n: int):
        self.pr = fam_r.pdf((np.arange(n) + 0.5) * h)
        gap = (np.arange(-(n - 1), 2 * n - 1) + 0.5) * h + delta  # e_m - x_k at m - k
        lag = np.where(gap >= 0.0, fam_o.pdf(np.maximum(gap, 0.0)), 0.0)
        denom = h * np.convolve(self.pr, lag)[n - 1 : 3 * n - 2]
        # splits narrower than half a cell cannot be resolved as a density;
        # their whole mass goes to the first cell
        self.n_tiny = int(np.count_nonzero(e < 0.5 * h))
        ok = denom > 0.0
        self.inv_denom = np.where(ok, 1.0 / np.where(ok, denom, 1.0), 0.0)
        self.inv_denom[: self.n_tiny] = 0.0
        self.size = _fast_len(lag.size)
        self.lag_hat = np.fft.rfft(lag, self.size)
        self.n = n
        self.h = h

    def deposit(self, q: np.ndarray) -> np.ndarray:
        scale_hat = np.fft.rfft(q * self.inv_denom, self.size)
        # corr[p] = sum_m scale_m G[m + p]; cell k takes lag p = n - 1 - k
        corr = np.fft.irfft(scale_hat.conj() * self.lag_hat, self.size)[self.n - 1 :: -1]
        out = self.pr * np.maximum(corr, 0.0)  # FFT round-off can dip below zero
        out[0] += q[: self.n_tiny].sum() / self.h
        return out


class CollisionPlan:
    """The parts of the collision operator that do not depend on rho.

    Built once per (network, n_cells, x_max): the pair-sum grid, the rates
    on it, the per-output energy offsets dI and effective weights, the loss
    gates with their FFTs, and one deposit per (recipient, split law, dI):
    cell indices and shares for uniform splits, recipient and lag pdf tables
    with the split normalizer for gamma-family canonical splits.  Networks
    outside that fast path keep direct O(V^2 n^3) quadrature.
    """

    def __init__(
        self,
        network: ReactionNetwork,
        n_cells: int,
        x_max: float,
        *,
        leak_to_last: bool = False,
        assume_normalized_kernels: bool = True,
    ):
        if network.has_unary:
            raise ValidationError("the collision equation covers binary channels only")
        n = int(n_cells)
        self.network = network
        self.shape = (network.types.count, n)
        self.h = h = float(x_max) / n
        self.assume_normalized_kernels = assume_normalized_kernels
        self.fast = _fast_path_ok(network)
        if not self.fast:
            return
        sigma = np.arange(1.0, 2.0 * n) * h  # pair-sum grid, s_m = (m+1) h
        ie = network.types.internal_energies
        self._size = _fast_len(2 * n - 1)
        # per type: (partner, gate) for gates constant on the s grid, whose
        # correlation is a plain sum, and (partner, gate FFT) for the others
        self._loss_flat = [[] for _ in range(network.types.count)]
        self._loss = [[] for _ in range(network.types.count)]
        self._pairs = []  # per channel: (v, w, [(deposit index, multiplier of rho_v * rho_w)])
        self._deposits = []  # (recipient, deposit)
        index = {}
        for ch in network.binary:
            v, w = ch.pair[0] - 1, ch.pair[1] - 1
            alpha_s = _sum_rate_values(ch.rate, sigma)
            delta_i = np.array(
                [ie[v] + ie[w] - ie[o.first - 1] - ie[o.second - 1] for o in ch.kernel.outputs]
            )
            w_eff = _effective_weights(ch.kernel, delta_i, sigma)
            # collisions remove the pair wherever at least one output is feasible
            gate = alpha_s * (w_eff.sum(axis=1) > 0.0)
            flat = bool(np.all(gate == gate[0]))
            gate_hat = None if flat else np.fft.rfft(gate, self._size)
            for a, b in ((v, w), (w, v)) if v != w else ((v, w),):
                if flat:
                    self._loss_flat[a].append((b, gate[0]))
                else:
                    self._loss[a].append((b, gate_hat))
            terms = []
            for o, rcp, other in _ordered_recipients(ch):
                col = ch.kernel.outputs.index(o)
                d = float(delta_i[col])
                if ch.kernel.kind == "uniform":
                    key = (rcp, d)
                else:
                    key = (rcp, ch.kernel.densities[rcp], ch.kernel.densities[other], d)
                if key not in index:
                    index[key] = len(self._deposits)
                    if ch.kernel.kind == "uniform":
                        dep = _UniformGain(sigma + d, h, n, leak_to_last)
                    else:
                        dep = _CanonicalGain(key[1], key[2], sigma + d, d, h, n)
                    self._deposits.append((rcp - 1, dep))
                # collision mass rate per s cell: alpha * C_m * h
                terms.append((index[key], alpha_s * w_eff[:, col] * (h * h)))
            self._pairs.append((v, w, terms))

    def _check(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValidationError(
                f"grid values have shape {values.shape}; the plan's network and grid "
                f"need {self.shape} (types, cells)"
            )
        return values

    def _gain(self, spectra: np.ndarray) -> np.ndarray:
        n = self.shape[1]
        q = [np.zeros(2 * n - 1) for _ in self._deposits]
        for v, w, terms in self._pairs:
            conv = np.fft.irfft(spectra[v] * spectra[w], self._size)[: 2 * n - 1]
            np.maximum(conv, 0.0, out=conv)  # FFT round-off can dip below zero
            for g, mult in terms:
                q[g] += mult * conv
        out = np.zeros(self.shape)
        for (rcp, dep), qg in zip(self._deposits, q):
            out[rcp] += dep.deposit(qg)
        return out

    def gain(self, values) -> np.ndarray:
        """Gain term alone, for fast-path networks."""
        values = self._check(values)
        return self._gain(np.fft.rfft(values, self._size, axis=1))

    def rhs(self, values) -> np.ndarray:
        """Collision gain minus loss for every (type, cell) of ``values``."""
        values = self._check(values)
        if not self.fast:
            return _rhs_multitype_generic(
                values, self.h, self.network, self.assume_normalized_kernels
            )
        spectra = np.fft.rfft(values, self._size, axis=1)
        out = self._gain(spectra)
        n = self.shape[1]
        for a, (flat, terms) in enumerate(zip(self._loss_flat, self._loss)):
            # loss rate sum_j alpha(s_{k+j}) rho_b[j]
            rate = sum(g * values[b].sum() for b, g in flat)
            if terms:  # a correlation, read off the FFT product without wrap-around
                corr = np.fft.irfft(sum(g * spectra[b].conj() for b, g in terms), self._size)[:n]
                rate = rate + np.maximum(corr, 0.0)
            out[a] -= values[a] * rate * self.h
        return out


def _rhs_multitype_generic(
    vals: np.ndarray, h: float, network: ReactionNetwork, assume_normalized: bool
):
    """Direct quadrature of the gain/loss integrals; O(V^2 n^3), small grids only."""
    n = vals.shape[1]
    x = (np.arange(n) + 0.5) * h
    ie = network.types.internal_energies
    out = np.zeros_like(vals)
    types = network.types
    for ch in network.binary:
        v, w = ch.pair
        rho_v = vals[v - 1]
        rho_w = vals[w - 1]
        delta_i = {
            (o.first, o.second): ie[v - 1] + ie[w - 1] - ie[o.first - 1] - ie[o.second - 1]
            for o in ch.kernel.outputs
        }
        raw_w = {(o.first, o.second): o.weight for o in ch.kernel.outputs}
        for iy in range(n):
            ty = x[iy]
            rates = np.asarray(ch.rate(ty, x), dtype=float)  # alpha(ty, z) over z cells
            for iz in range(n):
                tz = x[iz]
                weight_yz = rho_v[iy] * rho_w[iz] * h * h
                if weight_yz == 0.0 or rates[iz] == 0.0:
                    continue
                s = ty + tz
                feas = {k: s + d >= 0 for k, d in delta_i.items()}
                norm = sum(raw_w[k] for k, f in feas.items() if f)
                if assume_normalized:
                    mass_out = 1.0 if norm > 0 else 0.0
                else:
                    mass_out = ch.kernel.outcome_mass(v, ty, w, tz, types)
                # one ordered loss term per source slot; the ordered (y, z)
                # double loop already covers both roles when v == w
                out[v - 1, iy] -= rates[iz] * mass_out * rho_v[iy] * rho_w[iz] * h
                if v != w:
                    out[w - 1, iz] -= rates[iz] * mass_out * rho_v[iy] * rho_w[iz] * h
                if norm <= 0:
                    continue
                for o, rcp, other in _ordered_recipients(ch):
                    key = (o.first, o.second)
                    if not feas[key]:
                        continue
                    e = s + delta_i[key]
                    # any sub-normalization lives inside the kernel's split law
                    scale = rates[iz] * weight_yz * (raw_w[key] / norm)
                    if rcp == o.first:
                        pdf = ch.kernel.split_pdf(o, e, x)
                    else:  # complement coordinate of the same split
                        pdf = np.where(
                            (x >= 0) & (x <= e),
                            ch.kernel.split_pdf(o, e, np.clip(e - x, 0.0, None)),
                            0.0,
                        )
                    out[rcp - 1] += scale * pdf
    return out


def rhs_multitype(
    grid,
    network: ReactionNetwork,
    *,
    assume_normalized_kernels: bool = True,
    leak_to_last: bool = False,
    plan: CollisionPlan | None = None,
) -> np.ndarray:
    """Collision gain minus loss for every (type, cell).

    The loss is quadratic: rho_a times the correlation of alpha with each
    partner density.  Networks whose rates depend only on the energy sum and
    whose kernels are uniform or gamma-family canonical cost O(V^2 n log n)
    per call once their ``CollisionPlan`` is built; anything else falls back
    on direct O(V^2 n^3) quadrature, intended for small grids.  Unary
    channels have no counterpart in this equation and are rejected.  Mass is
    conserved up to the leak past x_max, energy too, but only without
    internal-energy gaps: across one the uniform deposit is mass-exact only.

    Without ``plan`` a plan is built for this call.  With a plan built for
    ``network`` and this grid, ``grid`` may also be the raw (V, n) values,
    and the plan's own kernel and leak settings apply.
    """
    if plan is None:
        plan = CollisionPlan(
            network,
            grid.n_cells,
            grid.x_max,
            leak_to_last=leak_to_last,
            assume_normalized_kernels=assume_normalized_kernels,
        )
    elif plan.network is not network:
        raise ValidationError("the collision plan was built for another network")
    return plan.rhs(grid.values if isinstance(grid, DensityGrid) else grid)


def _gain_1d(vals: np.ndarray, h: float) -> np.ndarray:
    """Gain of the one-type equation at unit rate."""
    plan = CollisionPlan(_one_type_network(1.0), vals.size, vals.size * h)
    return plan.gain(vals[None, :])[0]


def gain_one_type(grid: DensityGrid) -> np.ndarray:
    """Collision gain at each cell for a single-type grid."""
    if grid.n_types != 1:
        raise ValidationError("gain_one_type needs a single-type grid")
    return _gain_1d(grid.values[0], grid.h)


def rhs_one_type(grid: DensityGrid, alpha: float) -> np.ndarray:
    """Time derivative of a normalized one-type density: alpha * (gain - rho).

    At unit mass this is the quadratic loss rho * (alpha * mass) that
    ``integrate`` steps; the residual of a profile here also measures how
    far its discretization is from unit mass.
    """
    if alpha < 0:
        raise ValidationError(f"rate must be >= 0, got {alpha}")
    return alpha * (gain_one_type(grid) - grid.values[0])


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "rk4"
    alpha: float | None = None
    network: ReactionNetwork | None = None
    snapshot_times: tuple | None = None
    renormalize_mass: bool = False
    assume_normalized_kernels: bool = True
    clip_budget: float = 1e-6

    def validate(self) -> None:
        if not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValidationError(f"t_end must be >= 0, got {self.t_end}")
        if self.scheme not in ("euler", "rk4"):
            raise ValidationError(f"scheme must be 'euler' or 'rk4', got {self.scheme!r}")
        if (self.alpha is None) == (self.network is None):
            raise ValidationError("provide exactly one of alpha (one-type) or network")
        if self.alpha is not None and self.alpha < 0:
            raise ValidationError("alpha must be >= 0")


def suggest_dt(grid: DensityGrid, config: SolverConfig) -> float:
    """Heuristic stability estimate for the explicit schemes (not enforced).

    The loss term relaxes each cell at rate about alpha * mass, so a step
    well below its inverse keeps the explicit update contractive.
    """
    if config.alpha is not None:
        rate = config.alpha
    else:
        rate = max(
            (getattr(ch.rate, "value", 1.0) for ch in config.network.binary),
            default=1.0,
        )
    m = max(mass(grid), 1e-12)
    return 0.2 / (rate * m)


def integrate(grid0: DensityGrid, config: SolverConfig):
    """Fixed-step explicit integration; returns [(time, DensityGrid)] snapshots.

    Steps of ``dt`` run from t = 0.  A step that would pass a requested
    snapshot time or t_end is shortened to land on it, so each snapshot holds
    the state at the time of its label; when every requested time is a
    multiple of dt, every step is dt.  ``alpha`` stands for the one-type
    network with that constant rate and a uniform split.  The collision plan
    is built once; a Runge-Kutta stage that is non-finite or negative raises
    SolverBlowupError, as does negative mass clipped past ``clip_budget``.
    """
    config.validate()
    network = config.network
    if config.alpha is not None:
        if grid0.n_types != 1:
            raise ValidationError("scalar-rate configuration needs a one-type grid")
        network = _one_type_network(config.alpha)
    plan = CollisionPlan(
        network,
        grid0.n_cells,
        grid0.x_max,
        leak_to_last=config.renormalize_mass,
        assume_normalized_kernels=config.assume_normalized_kernels,
    )
    h = grid0.h
    vals = plan._check(grid0.values).copy()
    mass0 = float(vals.sum() * h)
    snap_times = (
        sorted(float(s) for s in config.snapshot_times)
        if config.snapshot_times is not None
        else [config.t_end]
    )
    for s in snap_times:
        if s < 0 or s > config.t_end + 1e-12:
            raise ValidationError(f"snapshot time {s} outside [0, {config.t_end}]")

    def rhs(u):
        return rhs_multitype(u, network, plan=plan)

    def stage(u):
        lo, hi = u.min(), u.max()
        if not (lo >= 0.0 and hi < np.inf):
            raise SolverBlowupError("non-finite or negative Runge-Kutta stage", step=step, time=t)
        return rhs(u)

    dt = config.dt
    tol = 1e-9 * dt
    out = []
    clipped = 0.0
    step = 0
    t = base = 0.0  # time reached, and where the current run of dt steps began
    k = 0  # dt steps since base
    for target, keep in [(s, True) for s in snap_times] + [(config.t_end, False)]:
        while t < target - tol:
            step += 1
            t_next = base + (k + 1) * dt
            if t_next > target + tol:  # shorten the step to land on the target
                tau, t, base, k = target - t, target, target, 0
            else:
                tau, k = dt, k + 1
                t = target if t_next >= target - tol else t_next
            if config.scheme == "euler":
                vals = vals + tau * rhs(vals)
            else:
                k1 = rhs(vals)
                k2 = stage(vals + 0.5 * tau * k1)
                k3 = stage(vals + 0.5 * tau * k2)
                k4 = stage(vals + tau * k3)
                vals = vals + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(vals)):
                raise SolverBlowupError("non-finite density", step=step, time=t)
            neg = vals < 0.0
            if np.any(neg):
                clipped += float(-vals[neg].sum() * h)
                vals[neg] = 0.0
                if clipped > config.clip_budget:
                    raise SolverBlowupError(
                        f"clipped negative mass {clipped:.3e} exceeds budget", step=step, time=t
                    )
            if config.renormalize_mass:
                m_now = float(vals.sum() * h)
                if m_now > 0:
                    vals *= mass0 / m_now
        if keep:
            out.append((t, DensityGrid(grid0.x_max, vals.copy())))
    return out
