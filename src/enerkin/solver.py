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
hand side then costs O(V^2 n log n) in a fixed number of numpy calls per
kind of work, each over stacked rows: one real FFT of the V densities, one
inverse FFT of every channel's pair spectrum and every varying loss gate's
correlation, one pass for all uniform deposits (tail sums, gather, boundary
shares), one FFT correlation pair for all canonical ones, and one sum per
type for the constant loss gates.  At the few hundred cells of a coarse
grid a numpy call costs more than its arithmetic, so the call count, not
the row count, sets the cost there.

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
rescales.  ``dopri5`` feeds a stage with negative entries no deeper than
1e-6 times its absolute tolerance to the right-hand side as it is and
counts it; it rejects and halves a step with a deeper or non-finite stage
or a negative result.  ``rk4`` raises SolverBlowupError on any negative or
non-finite stage or result, so no scheme writes a negative density.  A
``SolverConfig`` names the network to solve; the one-type equation is the
network of one type with a constant rate and a uniform split.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft

from .core import SolverBlowupError, TypeTable, ValidationError, _Record
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


class DensityGrid(_Record):
    """Per-type cell-centered densities on a uniform energy grid."""

    _fields = ("x_max", "values")

    def __init__(self, x_max: float, values: np.ndarray):  # values: shape (V, n_cells)
        self.x_max = x_max
        self.values = values
        self.__post_init__()

    def __post_init__(self):
        # its own method, which perfbench's tracer times as the span solver.DensityGrid
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
    """Why ``CollisionPlan``, and so ``product_form_measure``, cannot take ``ch``, or None."""
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
    """Deposits of the uniform split at available energies e_m = s_m + dI,
    one row per (recipient, dI).

    Each s cell spreads its outgoing mass q_m with density q_m / e_m over
    [0, e_m].  The fully covered cells make a tail sum over m; the partially
    covered boundary cell gets its overlap share, which keeps the deposit
    mass-exact even at threshold energies; zero available energy puts the
    whole mass at x = 0.  Cell indices and shares depend on the grid only.
    They index the rows laid end to end, so the tail sums, the gather of
    fully covered cells and the boundary shares of every row are one numpy
    call each, and each row adds in the order a lone deposit would.
    """

    def __init__(self, deltas: np.ndarray, sigma: np.ndarray, h: float, n: int):
        """One row per energy offset dI in ``deltas``, on the pair-sum grid ``sigma``."""
        es = sigma + deltas[:, None]
        rows, m = es.shape
        pos = es > 0.0
        self.inv_e = np.where(pos, 1.0 / np.where(pos, es, 1.0), 0.0)
        kfull = np.floor(es / h)
        # e increases with m, so cell k is fully covered by every m from first[k] on;
        # row r of the tail sums starts at r * (m + 1)
        first = [np.searchsorted(kf, np.arange(n), side="right") for kf in kfull]
        self.full = np.array(first) + (m + 1) * np.arange(rows)[:, None]
        share = np.where(pos, np.clip(es - kfull * h, 0.0, h) * self.inv_e, 1.0) / h
        row, col = np.nonzero((es >= 0.0) & (kfull < n) & (share > 0.0))
        self.bnd_m = row * m + col
        self.bnd_k = row * n + kfull[row, col].astype(int)
        self.bnd_share = share[row, col]

    def deposit(self, q: np.ndarray, out: np.ndarray) -> None:
        """Write the deposits of the outgoing masses ``q`` (rows, s cells) into ``out``."""
        rows, m = q.shape
        tail = np.zeros((rows, m + 1))
        np.multiply(q, self.inv_e, out=tail[:, :m])
        rev = tail[:, m - 1 :: -1]
        np.add.accumulate(rev, axis=1, out=rev)  # sums from the last cell down
        tail.take(self.full, out=out, mode="clip")  # every index is in range
        shares = np.bincount(self.bnd_k, q.take(self.bnd_m) * self.bnd_share, minlength=out.size)
        out += shares.reshape(out.shape)


class _CanonicalGain:
    """Deposits of the canonical split rho_r(x) rho_o(e - x) / Z(e) at
    e_m = s_m + dI, one row per (recipient, split law, dI).

    On the grid e_m - x_k = (m - k + 1/2) h + dI, so the partner density is
    one lag vector G[m - k] and the deposit is an FFT correlation of G with
    q / Z, one forward and one inverse transform for all rows.  Z is the
    midpoint quadrature that deposits the split, summed directly, which
    keeps each s cell's outgoing mass exact on the grid.

    Precision limit: for gamma laws of rate beta, Z(e) falls like
    e^(-beta e), so dividing by it amplifies the correlation's FFT round-off
    by up to e^(2 beta x_max).  On the two-type Gamma(2)/Exp(1) network from
    a Gamma(2, 1)/Exp(1) start, the error relative to max |rhs| of the dense
    reference is 2.9e-12 at beta = 1, x_max = 20, 9.0e-7 at x_max = 30 and
    2.6e2 at x_max = 40, and 1.3e3 at beta = 2, x_max = 20.
    """

    def __init__(self, splits, sigma: np.ndarray, h: float, n: int):
        """One row per (recipient law, partner law, dI) in ``splits``, on the
        pair-sum grid ``sigma``."""
        self.size = _fast_len(3 * n - 2)
        self.n = n
        self.h = h
        x = (np.arange(n) + 0.5) * h
        pr, inv_denom, lag_hat, self.tiny = [], [], [], []
        for j, (fam_r, fam_o, delta) in enumerate(splits):
            e = sigma + delta
            pr.append(fam_r.pdf(x))
            gap = (np.arange(-(n - 1), 2 * n - 1) + 0.5) * h + delta  # e_m - x_k at m - k
            lag = np.where(gap >= 0.0, fam_o.pdf(np.maximum(gap, 0.0)), 0.0)
            denom = h * np.convolve(pr[-1], lag)[n - 1 : 3 * n - 2]
            # splits narrower than half a cell cannot be resolved as a density;
            # their whole mass goes to the first cell
            n_tiny = int(np.count_nonzero(e < 0.5 * h))
            if n_tiny:
                self.tiny.append((j, n_tiny))
            ok = denom > 0.0
            inv_denom.append(np.where(ok, 1.0 / np.where(ok, denom, 1.0), 0.0))
            inv_denom[-1][:n_tiny] = 0.0
            lag_hat.append(rfft(lag, self.size))
        self.pr, self.inv_denom, self.lag_hat = np.array(pr), np.array(inv_denom), np.array(lag_hat)

    def deposit(self, q: np.ndarray, out: np.ndarray) -> None:
        """Write the deposits of the outgoing masses ``q`` (rows, s cells) into ``out``."""
        scale_hat = rfft(q * self.inv_denom, self.size)
        # corr[p] = sum_m scale_m G[m + p]; cell k takes lag p = n - 1 - k
        corr = irfft(scale_hat.conj() * self.lag_hat, self.size)[:, self.n - 1 :: -1]
        np.multiply(self.pr, np.maximum(corr, 0.0), out=out)  # FFT round-off can dip below zero
        for j, n_tiny in self.tiny:
            out[j, 0] += q[j, :n_tiny].sum() / self.h


class CollisionPlan:
    """The parts of the collision operator that do not depend on rho.

    Built once per (network, n_cells, x_max): the pair-sum grid, the rates
    on it, each output's weight per s cell and its energy offset dI (both
    from the kernel's outcome table), the loss gates with their FFTs, and
    one deposit row per (recipient, split law, dI):
    cell indices and shares for uniform splits, recipient and lag pdf tables
    with the split normalizer for gamma-family canonical splits.  A network
    the plan cannot represent raises ValidationError (``check_plan_support``).
    """

    def __init__(self, network: ReactionNetwork, n_cells: int, x_max: float):
        check_plan_support(network)
        n = int(n_cells)
        self.network = network
        self.shape = (network.types.count, n)
        self.x_max = float(x_max)
        self.h = h = self.x_max / n
        sigma = np.arange(1.0, 2.0 * n) * h  # pair-sum grid, s_m = (m+1) h
        types = network.types
        self._size = _fast_len(2 * n - 1)
        # per type, (partner, gate) for gates constant on the s grid, whose
        # correlation is a plain sum; (type, [(partner, gate FFT)]) for the others
        self._loss_flat = [[] for _ in range(types.count)]
        loss = [[] for _ in range(types.count)]
        self._pairs = []  # per channel: (v, w)
        terms = []  # (channel, deposit key, multiplier of rho_v * rho_w), in channel order
        for i, ch in enumerate(network.binary):
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
                    loss[a].append((b, gate_hat))
            for col, rcp, other in _ordered_recipients(ch):
                d = table.releases[col]
                key = (ch.kernel.kind, rcp, d)
                if ch.kernel.kind == "canonical":
                    key += (ch.kernel.densities[rcp], ch.kernel.densities[other])
                # collision mass rate per s cell: alpha * C_m * h
                terms.append((i, key, alpha_s * table.weights[sizes, col] * (h * h)))
            self._pairs.append((v, w))
        self._loss = [(a, t) for a, t in enumerate(loss) if t]
        # one deposit row per key, the uniform rows first, each kind one stacked pass
        keys = list(dict.fromkeys(key for _, key, _ in terms))  # in the order first met
        uniform = [key for key in keys if key[0] == "uniform"]
        canonical = [key for key in keys if key[0] == "canonical"]
        row = {key: r for r, key in enumerate(uniform + canonical)}
        self._gains = []  # (deposit rows, stacked deposit)
        if uniform:
            deltas = np.array([d for _, _, d in uniform])
            self._gains.append((slice(0, len(uniform)), _UniformGain(deltas, sigma, h, n)))
        if canonical:
            splits = [(fr, fo, d) for _, _, d, fr, fo in canonical]
            self._gains.append((slice(len(uniform), None), _CanonicalGain(splits, sigma, h, n)))
        # (channel, row, multiplier, whether it is the row's first term)
        self._terms, seen = [], set()
        for i, key, mult in terms:
            self._terms.append((i, row[key], mult, key not in seen))
            seen.add(key)
        # each row adds into its recipient in the order the rows were first met
        self._adds = [(key[1] - 1, row[key]) for key in keys]

    def _check(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValidationError(
                f"grid values have shape {values.shape}; the plan's network and grid "
                f"need {self.shape} (types, cells)"
            )
        return values

    def _transforms(self, values: np.ndarray, with_loss: bool) -> np.ndarray:
        """One inverse FFT: a row per channel's pair spectrum S_v S_w, then,
        ``with_loss``, a row per type's varying-gate correlation spectrum."""
        spectra = rfft(values, self._size)
        loss = self._loss if with_loss else []
        prod = np.empty((len(self._pairs) + len(loss), spectra.shape[1]), dtype=spectra.dtype)
        for i, (v, w) in enumerate(self._pairs):
            np.multiply(spectra[v], spectra[w], out=prod[i])
        for i, (_, terms) in enumerate(loss, len(self._pairs)):
            prod[i] = sum(g * spectra[b].conj() for b, g in terms)
        return irfft(prod, self._size)

    def _gain(self, conv: np.ndarray) -> np.ndarray:
        np.maximum(conv, 0.0, out=conv)  # FFT round-off can dip below zero
        # a row's first term is written, not added to 0.0: that changes only the
        # sign of a zero, and the sums into the zeroed ``out`` below drop that sign
        q = np.empty((len(self._adds), conv.shape[1]))
        for i, r, mult, first in self._terms:
            if first:
                np.multiply(mult, conv[i], out=q[r])
            else:
                q[r] += mult * conv[i]
        dep = np.empty((len(self._adds), self.shape[1]))
        for rows, gain in self._gains:
            gain.deposit(q[rows], dep[rows])
        out = np.zeros(self.shape)
        for rcp, row in self._adds:
            out[rcp] += dep[row]
        return out

    def gain(self, values) -> np.ndarray:
        """Gain term alone: the deposits of every channel's outgoing pair mass."""
        values = self._check(values)
        return self._gain(self._transforms(values, False)[:, : 2 * self.shape[1] - 1])

    def rhs(self, values) -> np.ndarray:
        """Collision gain minus loss for every (type, cell) of ``values``."""
        values = self._check(values)
        inv = self._transforms(values, True)
        n, n_pairs = self.shape[1], len(self._pairs)
        out = self._gain(inv[:n_pairs, : 2 * n - 1])
        # loss rate sum_j alpha(s_{k+j}) rho_b[j]: a plain sum for constant gates,
        # and a correlation, read off the FFT product without wrap-around, for the others
        sums = values.sum(axis=1)
        rate = [sum(g * sums[b] for b, g in flat) for flat in self._loss_flat]
        rate = np.array(rate, dtype=float)
        loss = values * rate[:, None]
        for (a, _), corr in zip(self._loss, inv[n_pairs:, :n]):
            np.multiply(values[a], rate[a] + np.maximum(corr, 0.0), out=loss[a])
        loss *= self.h
        out -= loss
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
    ``network`` and this grid, ``grid`` may also be the raw (V, n) values;
    raw values without a plan, and a grid on another [0, x_max] than the
    plan's, raise ValidationError.
    """
    is_grid = isinstance(grid, DensityGrid)
    if plan is None:
        if not is_grid:
            raise ValidationError(
                "raw grid values carry no x_max: pass a DensityGrid, or the collision "
                "plan built for their grid as plan="
            )
        plan = CollisionPlan(network, grid.n_cells, grid.x_max)
    elif plan.network is not network:
        raise ValidationError("the collision plan was built for another network")
    elif is_grid and grid.x_max != plan.x_max:
        raise ValidationError(
            f"the grid spans [0, {grid.x_max}] but the collision plan was built "
            f"for [0, {plan.x_max}]"
        )
    return plan.rhs(grid.values if is_grid else grid)


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
_KAPPA = 1e-6  # dopri5 feeds a stage entry in [-_KAPPA * atol, 0) to the right-hand side


class SolverConfig(_Record):
    """A solve of ``network`` to ``t_end`` with one scheme, snapshots at
    ``snapshot_times`` (None: ``t_end`` only), each in [0, t_end].

    ``rk4`` takes fixed steps of ``dt``, which it requires.  ``dopri5`` adapts
    its steps to the relative tolerance ``rtol`` (None: 1e-8) and takes no
    ``dt``.  ``network`` must be one the collision plan can represent
    (``check_plan_support``).
    """

    _fields = ("network", "t_end", "dt", "scheme", "rtol", "snapshot_times")

    def __init__(
        self,
        network: ReactionNetwork,
        t_end: float,
        dt: float | None = None,
        scheme: str = "dopri5",
        rtol: float | None = None,
        snapshot_times: tuple | None = None,
    ):
        self.network = network
        self.t_end = t_end
        self.dt = dt
        self.scheme = scheme
        self.rtol = rtol
        self.snapshot_times = snapshot_times

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
    ``rhs_evals`` right-hand sides, ``steps_accepted`` and ``steps_rejected``,
    and ``stages_admitted``, the ``dopri5`` stages fed to the right-hand side
    with negative entries no deeper than 1e-6 atol."""

    def __init__(self):
        super().__init__()
        self.rhs_evals = 0
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.stages_admitted = 0


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
    past it, or within 1% of it, is set to land on it.  A stage whose
    negative entries all lie in [-_KAPPA * atol, 0) is fed to the
    right-hand side as it is and counted in ``stages_admitted``: such dips
    arise at the edge of an advancing tail and lie far inside the error
    control's absolute tolerance (Shampine et al. 2005).  A step with a
    deeper dip or a non-finite entry in a stage, or any negative entry in
    its result, is rejected and halved; a step too small to advance the
    time raises.
    """
    atol = max(rtol * float(u.mean()), np.finfo(float).tiny)
    floor = -_KAPPA * atol  # the deepest stage entry admitted
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
                low = float(y.min())
                lowest = floor if len(ks) < len(_DP_A) else 0.0  # the last row is the result
                if not (low >= lowest and y.max() < np.inf):
                    break
                result.stages_admitted += low < 0.0
                ks.append(rhs(y))
            if len(ks) <= len(_DP_A):  # a stage dipped too deep, the result went negative, or inf
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
    Nothing is clipped or rescaled: ``dopri5`` admits a stage whose negative
    entries lie within 1e-6 atol and rejects and halves a step whose stage
    dips deeper or whose result is negative or non-finite; ``rk4`` raises
    SolverBlowupError on any negative or non-finite stage or result, and so
    does ``dopri5`` when its step underflows.  The returned SolveResult also
    counts right-hand sides, steps and admitted stages.
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
