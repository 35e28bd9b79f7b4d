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
with the convolution tail.  Across a gap both deposits are exact in mass
only: the available energy s + dI lies off the grid, and energy drifts at
O(h^2).  With Exp(1) densities of equal weight on [0, 20], the relative
dE/dt is 4.6e-5 at n = 400 and 4.3e-7 at n = 4000 for uniform splits
across a gap of 0.5, and 2.6e-5 and 2.6e-7 for Gamma(2)/Exp(1) canonical
splits across a gap of 0.3.

``integrate`` steps the equation with the adaptive embedded Dormand-Prince
5(4) pair (``dopri5``, the default) or with fixed-step classical RK4
(``rk4``).  Neither steps past a requested time, and neither clips nor
rescales: a ``dopri5`` step whose stage or result is negative or
non-finite is rejected and halved, and ``rk4`` raises SolverBlowupError on
one.  A ``SolverConfig`` names the network to solve; the one-type equation
is the network of one type with a constant rate and a uniform split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .core import SolverBlowupError, TypeTable, ValidationError
from .reactions import BinaryChannel, ConstantRate, ReactionNetwork, UniformKernel

__all__ = [
    "DensityGrid",
    "CollisionPlan",
    "SolverConfig",
    "SolveResult",
    "rhs_one_type",
    "rhs_multitype",
    "integrate",
    "mass",
    "mean_energy",
]

SCHEMES = ("dopri5", "rk4")


@dataclass
class DensityGrid:
    """Per-type cell-centered densities on a uniform energy grid."""

    x_max: float
    values: np.ndarray  # shape (V, n_cells)

    def __post_init__(self):
        if not (self.x_max > 0):
            raise ValidationError(f"x_max must be positive, got {self.x_max}")
        # a copy, with any -0.0 as 0.0
        vals = np.atleast_2d(np.asarray(self.values, dtype=float)) + 0.0
        if vals.ndim != 2 or vals.shape[1] < 2:
            raise ValidationError("grid values must be (V, n_cells) with n_cells >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid values must be finite")
        if np.any(vals < 0.0):
            raise ValidationError("grid values must be nonnegative")
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
            # a running maximum: a CDF that dips by round-off (a table whose sum
            # ends a few ulp past 1, a gamma at saturation) gives empty cells,
            # not negative ones
            cdf = np.maximum.accumulate(fam.cdf(edges))
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


def _plan_support_fault(ch: BinaryChannel) -> str | None:
    """Why ``CollisionPlan`` cannot represent channel ``ch``, or None when it can."""
    if not hasattr(ch.rate, "of_sum"):
        return f"rate {ch.rate!r} is not a function of the energy sum (it has no of_sum)"
    if ch.kernel.kind == "uniform":
        return None
    if ch.kernel.kind != "canonical":
        return (
            f"kernel kind {ch.kernel.kind!r} is simulator-only; the collision equation "
            "takes 'uniform' and 'canonical' kernels"
        )
    betas = set()
    for tid, fam in ch.kernel.densities.items():
        shape = fam.gamma_shape()
        if shape is None:
            return f"canonical density of type {tid} is {type(fam).__name__}, not a gamma law"
        betas.add(shape[1])
    if len(betas) > 1:
        return f"canonical densities need one common beta, got betas {sorted(betas)}"
    return None


def check_plan_support(network: ReactionNetwork) -> None:
    """Raise ValidationError unless ``CollisionPlan`` can represent ``network``.

    The plan takes binary channels whose rate is a function of the energy
    sum (``of_sum``) and whose kernel is uniform, or canonical with gamma-law
    densities of one common beta.  The error names the first channel that
    fails, by its reactant pair, and the reason.
    """
    if network.has_unary:
        ch = network.unary[0]
        raise ValidationError(
            f"unary channel {ch.source}->{ch.target}: the collision equation covers "
            "binary channels only"
        )
    for ch in network.binary:
        fault = _plan_support_fault(ch)
        if fault is not None:
            raise ValidationError(f"reactant pair {ch.pair}: {fault}")


def _ordered_recipients(ch):
    """Yield (output index, recipient, partner) for every ordered source expansion."""
    v, w = ch.pair
    for k, o in enumerate(ch.kernel.outputs):
        yield k, o.first, o.second
        if v != w:
            yield k, o.second, o.first


class _UniformGain:
    """Deposit of the uniform split at available energies e_m = s_m + dI.

    Each s cell spreads its outgoing mass q_m with density q_m / e_m over
    [0, e_m].  The fully covered cells make a tail sum over m; the partially
    covered boundary cell gets its overlap share, which keeps the deposit
    mass-exact even at threshold energies; zero available energy puts the
    whole mass at x = 0.  Cell indices and shares depend on the grid only.
    """

    def __init__(self, e: np.ndarray, h: float, n: int):
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

    def deposit(self, q: np.ndarray) -> np.ndarray:
        tail = np.zeros(q.size + 1)
        np.cumsum((q * self.inv_e)[::-1], out=tail[-2::-1])
        out = tail[self.first]
        out += np.bincount(self.bnd_k, q[self.bnd_m] * self.bnd_share, minlength=self.n)
        return out


class _CanonicalGain:
    """Deposit of the canonical split rho_r(x) rho_o(e - x) / Z(e) at e_m = s_m + dI.

    On the grid e_m - x_k = (m - k + 1/2) h + dI, so the partner density is
    one lag vector G[m - k] and the deposit is an FFT correlation of G with
    q / Z.  Z is the midpoint quadrature that deposits the split, summed
    directly, which keeps each s cell's outgoing mass exact on the grid.

    Precision limit: for gamma laws of rate beta, Z(e) falls like
    e^(-beta e), so dividing by it amplifies the correlation's FFT round-off
    by up to e^(2 beta x_max).  On the two-type Gamma(2)/Exp(1) network from
    a Gamma(2, 1)/Exp(1) start, the error relative to max |rhs| of the dense
    reference is 2.9e-12 at beta = 1, x_max = 20, 9.0e-7 at x_max = 30 and
    2.6e2 at x_max = 40, and 1.3e3 at beta = 2, x_max = 20.
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
        self.lag_hat = rfft(lag, self.size)
        self.n = n
        self.h = h

    def deposit(self, q: np.ndarray) -> np.ndarray:
        scale_hat = rfft(q * self.inv_denom, self.size)
        # corr[p] = sum_m scale_m G[m + p]; cell k takes lag p = n - 1 - k
        corr = irfft(scale_hat.conj() * self.lag_hat, self.size)[self.n - 1 :: -1]
        out = self.pr * np.maximum(corr, 0.0)  # FFT round-off can dip below zero
        out[0] += q[: self.n_tiny].sum() / self.h
        return out


class CollisionPlan:
    """The parts of the collision operator that do not depend on rho.

    Built once per (network, n_cells, x_max): the pair-sum grid, the rates
    on it, each output's weight per s cell and its energy offset dI (both
    from the kernel's outcome table), the loss gates with their FFTs, and
    one deposit per (recipient, split law, dI):
    cell indices and shares for uniform splits, recipient and lag pdf tables
    with the split normalizer for gamma-family canonical splits.  A network
    the plan cannot represent raises ValidationError (``check_plan_support``).
    """

    def __init__(self, network: ReactionNetwork, n_cells: int, x_max: float):
        check_plan_support(network)
        n = int(n_cells)
        self.network = network
        self.shape = (network.types.count, n)
        self.h = h = float(x_max) / n
        sigma = np.arange(1.0, 2.0 * n) * h  # pair-sum grid, s_m = (m+1) h
        types = network.types
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
            alpha_s = np.asarray(ch.rate.of_sum(sigma), dtype=float)
            table = ch.kernel._outcome_table(*ch.pair, types)
            sizes = table.sizes(sigma)
            # collisions remove the pair wherever at least one output is feasible
            gate = alpha_s * (sizes > 0)
            flat = bool(np.all(gate == gate[0]))
            gate_hat = None if flat else rfft(gate, self._size)
            for a, b in ((v, w), (w, v)) if v != w else ((v, w),):
                if flat:
                    self._loss_flat[a].append((b, gate[0]))
                else:
                    self._loss[a].append((b, gate_hat))
            terms = []
            for col, rcp, other in _ordered_recipients(ch):
                d = table.releases[col]
                if ch.kernel.kind == "uniform":
                    key = (rcp, d)
                else:
                    key = (rcp, ch.kernel.densities[rcp], ch.kernel.densities[other], d)
                if key not in index:
                    index[key] = len(self._deposits)
                    if ch.kernel.kind == "uniform":
                        dep = _UniformGain(sigma + d, h, n)
                    else:
                        dep = _CanonicalGain(key[1], key[2], sigma + d, d, h, n)
                    self._deposits.append((rcp - 1, dep))
                # collision mass rate per s cell: alpha * C_m * h
                terms.append((index[key], alpha_s * table.weights[sizes, col] * (h * h)))
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
            conv = irfft(spectra[v] * spectra[w], self._size)[: 2 * n - 1]
            np.maximum(conv, 0.0, out=conv)  # FFT round-off can dip below zero
            for g, mult in terms:
                q[g] += mult * conv
        out = np.zeros(self.shape)
        for (rcp, dep), qg in zip(self._deposits, q):
            out[rcp] += dep.deposit(qg)
        return out

    def gain(self, values) -> np.ndarray:
        """Gain term alone: the deposits of every channel's outgoing pair mass."""
        values = self._check(values)
        return self._gain(rfft(values, self._size, axis=1))

    def rhs(self, values) -> np.ndarray:
        """Collision gain minus loss for every (type, cell) of ``values``."""
        values = self._check(values)
        spectra = rfft(values, self._size, axis=1)
        out = self._gain(spectra)
        n = self.shape[1]
        for a, (flat, terms) in enumerate(zip(self._loss_flat, self._loss)):
            # loss rate sum_j alpha(s_{k+j}) rho_b[j]
            rate = sum(g * values[b].sum() for b, g in flat)
            if terms:  # a correlation, read off the FFT product without wrap-around
                corr = irfft(sum(g * spectra[b].conj() for b, g in terms), self._size)[:n]
                rate = rate + np.maximum(corr, 0.0)
            out[a] -= values[a] * rate * self.h
        return out


def rhs_multitype(
    grid, network: ReactionNetwork, *, plan: CollisionPlan | None = None
) -> np.ndarray:
    """Collision gain minus loss for every (type, cell).

    The loss is quadratic: rho_a times the correlation of alpha with each
    partner density.  Each call costs O(V^2 n log n) once the network's
    ``CollisionPlan`` is built.  The plan takes rates that depend only on the
    energy sum and kernels that are uniform or gamma-family canonical with
    one common beta; any other network, and any with unary channels, raises
    ValidationError (``check_plan_support``).  Mass is conserved up to the
    leak past x_max, energy too, but only without internal-energy gaps:
    across one both the uniform and the canonical deposit are mass-exact
    only, and energy drifts at O(h^2).

    Without ``plan`` a plan is built for this call.  With a plan built for
    ``network`` and this grid, ``grid`` may also be the raw (V, n) values.
    """
    if plan is None:
        plan = CollisionPlan(network, grid.n_cells, grid.x_max)
    elif plan.network is not network:
        raise ValidationError("the collision plan was built for another network")
    return plan.rhs(grid.values if isinstance(grid, DensityGrid) else grid)


def _gain_1d(vals: np.ndarray, h: float) -> np.ndarray:
    """Gain of the one-type equation at unit rate: constant rate 1, uniform split."""
    network = ReactionNetwork(
        TypeTable(np.array([0.0])),
        [BinaryChannel((1, 1), ConstantRate(1.0), UniformKernel([(1, 1, 1.0)]))],
    )
    plan = CollisionPlan(network, vals.size, vals.size * h)
    return plan.gain(vals[None, :])[0]


def rhs_one_type(grid: DensityGrid, alpha: float) -> np.ndarray:
    """Time derivative of a normalized one-type density: alpha * (gain - rho).

    At unit mass this is the quadratic loss rho * (alpha * mass) that
    ``integrate`` steps; the residual of a profile here also measures how
    far its discretization is from unit mass.
    """
    if alpha < 0:
        raise ValidationError(f"rate must be >= 0, got {alpha}")
    if grid.n_types != 1:
        raise ValidationError("rhs_one_type needs a single-type grid")
    return alpha * (_gain_1d(grid.values[0], grid.h) - grid.values[0])


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4): each row builds the next stage from the stages before
# it; the last row is the fifth-order solution, whose right-hand side is the
# first stage of the next step (FSAL).  _DP_E weighs the stages into the
# difference of the fifth- and fourth-order solutions.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DEFAULT_RTOL = 1e-8


@dataclass
class SolverConfig:
    """A solve of ``network`` to ``t_end`` with one scheme, snapshots at
    ``snapshot_times`` (None: ``t_end`` only), each in [0, t_end].

    ``rk4`` takes fixed steps of ``dt``, which it requires.  ``dopri5`` adapts
    its steps to the relative tolerance ``rtol`` (None: 1e-8) and takes no
    ``dt``.  ``network`` must be one the collision plan can represent
    (``check_plan_support``).
    """

    network: ReactionNetwork
    t_end: float
    dt: float | None = None
    scheme: str = "dopri5"
    rtol: float | None = None
    snapshot_times: tuple | None = None

    def validate(self) -> None:
        if self.t_end < 0:
            raise ValidationError(f"t_end must be >= 0, got {self.t_end}", field="t_end")
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"scheme must be one of {', '.join(SCHEMES)}, got {self.scheme!r}", field="scheme"
            )
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}", field="dt")
        if self.scheme == "rk4":
            if self.dt is None:
                raise ValidationError("scheme 'rk4' needs dt", field="dt")
            if self.rtol is not None:
                raise ValidationError("rtol applies to scheme 'dopri5' only", field="rtol")
        else:
            if self.dt is not None:
                raise ValidationError("dt applies to scheme 'rk4' only", field="dt")
            if self.rtol is not None and not (0 < self.rtol < 1):
                raise ValidationError(f"rtol must lie in (0, 1), got {self.rtol}", field="rtol")
        for s in self.snapshot_times or ():
            if s < 0 or s > self.t_end + 1e-12:
                raise ValidationError(
                    f"snapshot time {s} outside [0, {self.t_end}]", field="snapshot_times"
                )
        check_plan_support(self.network)


class SolveResult(list):
    """The [(time, DensityGrid)] snapshots of a solve, with its step counts:
    ``rhs_evals`` right-hand sides, ``steps_accepted`` and ``steps_rejected``."""

    def __init__(self):
        super().__init__()
        self.rhs_evals = 0
        self.steps_accepted = 0
        self.steps_rejected = 0


def _admissible(u: np.ndarray) -> bool:
    """True when every density is finite and nonnegative."""
    return bool(u.min() >= 0.0 and u.max() < np.inf)


def _rk4(u, targets, dt, rhs, result):
    """Fixed steps of dt from t = 0, yielding (t, u) at each target.

    A step that would pass the target is shortened to land on it, and the
    steps after it start from there; when every target is a multiple of dt,
    every step is dt.  A negative or non-finite stage or result raises.
    """
    tol = 1e-9 * dt
    step = 0
    t = base = 0.0  # time reached, and where the current run of dt steps began
    k = 0  # dt steps since base

    def admitted(v, what):
        if not _admissible(v):
            raise SolverBlowupError(f"non-finite or negative {what}", step=step, time=t)
        return v

    for target in targets:
        while t < target - tol:
            step += 1
            t_next = base + (k + 1) * dt
            if t_next > target + tol:
                tau, t, base, k = target - t, target, target, 0
            else:
                tau, k = dt, k + 1
                t = target if t_next >= target - tol else t_next
            k1 = rhs(u)
            k2 = rhs(admitted(u + 0.5 * tau * k1, "Runge-Kutta stage"))
            k3 = rhs(admitted(u + 0.5 * tau * k2, "Runge-Kutta stage"))
            k4 = rhs(admitted(u + tau * k3, "Runge-Kutta stage"))
            u = admitted(u + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), "density")
            result.steps_accepted += 1
        yield t, u


def _dopri5(u, targets, rtol, rhs, result):
    """Adaptive Dormand-Prince 5(4) steps from t = 0, yielding (t, u) at each target.

    The first step is 1% of max(u) / max|u'|.  Step control after Hairer,
    Norsett & Wanner (Solving ODEs I, II.4): the RMS norm of the embedded
    error, each cell scaled by atol + rtol * max(u, u_new) with atol = rtol
    times the initial state's mean, must be at most 1; the next step is the
    last one times 0.9 err^(-1/5), kept in [0.2, 5] (and at most 1 after a
    rejection).  A step never passes the target: the one that would reach
    past it, or within 1% of it, is set to land on it.  A step with a
    negative or non-finite stage or result is rejected and halved; a step
    too small to advance the time raises.
    """
    atol = max(rtol * float(u.mean()), np.finfo(float).tiny)
    f = rhs(u)
    fmax = float(np.abs(f).max())
    h = 0.01 * float(u.max()) / fmax if fmax > 0 else np.inf
    t = 0.0
    grow = 5.0
    for target in targets:
        while t < target:
            land = t + 1.01 * h >= target
            tau = target - t if land else h
            if tau <= 16 * np.finfo(float).eps * target:
                raise SolverBlowupError(
                    f"step size underflow ({tau:.3g})", step=result.steps_accepted + 1, time=t
                )
            ks = [f]
            for row in _DP_A:
                y = u + tau * sum(a * k for a, k in zip(row, ks) if a)
                if not _admissible(y):
                    break
                ks.append(rhs(y))
            if len(ks) <= len(_DP_A):  # a stage or the result went negative or non-finite
                result.steps_rejected += 1
                h, grow = 0.5 * tau, 1.0
                continue
            err_est = tau * sum(e * k for e, k in zip(_DP_E, ks) if e)
            err = float(np.linalg.norm(err_est / (atol + rtol * np.maximum(u, y)))) / np.sqrt(y.size)
            fac = 0.9 * err ** -0.2 if err > 0 else np.inf
            if err > 1.0:
                result.steps_rejected += 1
                h, grow = tau * max(0.2, fac), 1.0
                continue
            t = target if land else t + tau
            u, f = y, ks[-1]
            result.steps_accepted += 1
            h_next = tau * min(grow, fac)
            h = max(h, h_next) if land else h_next
            grow = 5.0
        yield t, u


def integrate(grid0: DensityGrid, config: SolverConfig) -> SolveResult:
    """Explicit Runge-Kutta integration; returns the [(time, DensityGrid)] snapshots.

    ``dopri5`` (the default) takes adaptive embedded Dormand-Prince 5(4)
    steps; ``rk4`` takes fixed steps of ``dt``.  Either scheme lands exactly
    on every requested snapshot time and on t_end, so each snapshot holds
    the state at the time of its label.  The collision plan is built once.
    Nothing is clipped or rescaled: ``dopri5`` rejects and halves a step
    whose stage or result is negative or non-finite, ``rk4`` raises
    SolverBlowupError, and so does ``dopri5`` when its step underflows.  The
    returned SolveResult also counts right-hand sides and steps.
    """
    config.validate()
    plan = CollisionPlan(config.network, grid0.n_cells, grid0.x_max)
    vals = plan._check(grid0.values).copy()
    snap_times = (
        sorted(float(s) for s in config.snapshot_times)
        if config.snapshot_times is not None
        else [config.t_end]
    )
    result = SolveResult()

    def rhs(u):
        result.rhs_evals += 1
        return rhs_multitype(u, config.network, plan=plan)

    targets = snap_times + [config.t_end]
    if config.scheme == "rk4":
        states = _rk4(vals, targets, config.dt, rhs, result)
    else:
        rtol = _DEFAULT_RTOL if config.rtol is None else config.rtol
        states = _dopri5(vals, targets, rtol, rhs, result)
    for k, (t, u) in enumerate(states):
        if k < len(snap_times):
            result.append((t, DensityGrid(grid0.x_max, u)))
    return result
