"""Probability densities on the energy half-line.

These families describe kinetic-energy laws (exponential, gamma, uniform,
tabulated) and full-energy laws supported above an internal-energy offset
(shifted gamma).  They are shared by the kernel samplers, the grid solver
and the equilibrium checks.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ValidationError, _FrozenRecord

__all__ = [
    "DensityFamily",
    "Exponential",
    "GammaDensity",
    "ShiftedGamma",
    "UniformDensity",
    "Shifted",
    "Tabulated",
    "density_from_spec",
]


class DensityFamily:
    """A normalized probability density on a subinterval of [0, inf)."""

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(lo, hi) with hi possibly inf; pdf vanishes outside."""
        raise NotImplementedError

    def gamma_shape(self) -> tuple[float, float] | None:
        """(nu, beta) when the law is Gamma(nu, beta) on [0, inf), else None."""
        return None


class Exponential(_FrozenRecord, DensityFamily):
    _fields = ("beta",)

    def __init__(self, beta: float):
        vars(self)["beta"] = beta
        if not (beta > 0 and math.isfinite(beta)):
            raise ValidationError(f"exponential rate must be positive, got {beta}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.beta * np.exp(-self.beta * x), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-self.beta * x), 0.0)

    def mean(self) -> float:
        return 1.0 / self.beta

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.beta, size=size)

    def support(self):
        return (0.0, math.inf)

    def gamma_shape(self):
        return (1.0, self.beta)


class GammaDensity(_FrozenRecord, DensityFamily):
    _fields = ("nu", "beta")

    def __init__(self, nu: float, beta: float):
        vars(self).update(nu=nu, beta=beta)
        if not (nu > 0 and math.isfinite(nu)):
            raise ValidationError(f"gamma shape must be positive, got {nu}")
        if not (beta > 0 and math.isfinite(beta)):
            raise ValidationError(f"gamma rate must be positive, got {beta}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast(x).shape if x.ndim else ())
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (
                self.nu * math.log(self.beta)
                + (self.nu - 1.0) * np.log(x, where=x > 0, out=np.full_like(x, -np.inf))
                - self.beta * x
                - math.lgamma(self.nu)
            )
        out = np.where(x > 0, np.exp(logp), 0.0)
        if self.nu == 1.0:
            out = np.where(x == 0, self.beta, out)
        return out

    def cdf(self, x):
        # scipy.special takes a quarter second to import and only this method needs it
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        return np.where(x > 0, gammainc(self.nu, self.beta * x), 0.0)

    def mean(self) -> float:
        return self.nu / self.beta

    def sample(self, rng, size=None):
        return rng.gamma(self.nu, 1.0 / self.beta, size=size)

    def support(self):
        return (0.0, math.inf)

    def gamma_shape(self):
        return (self.nu, self.beta)


class UniformDensity(_FrozenRecord, DensityFamily):
    _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        vars(self).update(lo=lo, hi=hi)
        if not (0 <= lo < hi and math.isfinite(hi)):
            raise ValidationError(f"need 0 <= lo < hi < inf, got [{lo}, {hi}]")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size=size)

    def support(self):
        return (self.lo, self.hi)


class Shifted(_FrozenRecord, DensityFamily):
    """A base density translated right by a nonnegative offset."""

    _fields = ("base", "offset")

    def __init__(self, base: DensityFamily, offset: float):
        vars(self).update(base=base, offset=offset)
        if offset < 0:
            raise ValidationError(f"offset must be >= 0, got {offset}")

    def pdf(self, x):
        return self.base.pdf(np.asarray(x, dtype=float) - self.offset)

    def cdf(self, x):
        return self.base.cdf(np.asarray(x, dtype=float) - self.offset)

    def mean(self) -> float:
        return self.offset + self.base.mean()

    def sample(self, rng, size=None):
        return self.offset + self.base.sample(rng, size=size)

    def support(self):
        lo, hi = self.base.support()
        return (lo + self.offset, hi + self.offset)

    def gamma_shape(self):
        return self.base.gamma_shape() if self.offset == 0.0 else None


class ShiftedGamma(Shifted):
    """Gamma law in the excess over a fixed offset; zero below the offset."""

    def __init__(self, nu: float, beta: float, shift: float = 0.0):
        super().__init__(GammaDensity(nu, beta), shift)

    nu = property(lambda self: self.base.nu)
    beta = property(lambda self: self.base.beta)
    shift = property(lambda self: self.offset)


class Tabulated(DensityFamily):
    """Piecewise-constant density on a uniform grid over [0, x_max]."""

    def __init__(self, x_max: float, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("tabulated density needs a 1-d value array")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValidationError("tabulated density values must be finite and >= 0")
        if not (x_max > 0):
            raise ValidationError(f"x_max must be positive, got {x_max}")
        h = x_max / values.size
        total = float(values.sum() * h)
        if abs(total - 1.0) > 1e-8:
            raise ValidationError(f"tabulated density integrates to {total}, not 1")
        self.x_max = float(x_max)
        self.values = values
        self.h = h
        self._cum = np.concatenate([[0.0], np.cumsum(values) * h])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip((x / self.h).astype(int), 0, self.values.size - 1)
        return np.where((x >= 0) & (x <= self.x_max), self.values[idx], 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        edges = np.linspace(0.0, self.x_max, self.values.size + 1)
        return np.interp(x, edges, self._cum, left=0.0, right=1.0)

    def mean(self) -> float:
        centers = (np.arange(self.values.size) + 0.5) * self.h
        return float(np.sum(centers * self.values) * self.h)

    def sample(self, rng, size=None):
        u = rng.uniform(size=size)
        edges = np.linspace(0.0, self.x_max, self.values.size + 1)
        return np.interp(u, self._cum, edges)

    def support(self):
        return (0.0, self.x_max)


def density_from_spec(spec: dict) -> DensityFamily:
    """Build a density from its JSON description ({"family": ..., params})."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValidationError(f"density spec must name a family: {spec!r}")
    family = spec["family"]
    params = {k: v for k, v in spec.items() if k != "family"}
    try:
        if family == "exponential":
            return Exponential(beta=float(params["beta"]))
        if family == "gamma":
            return GammaDensity(nu=float(params["nu"]), beta=float(params["beta"]))
        if family == "shifted_gamma":
            return ShiftedGamma(
                nu=float(params["nu"]),
                beta=float(params["beta"]),
                shift=float(params.get("shift", 0.0)),
            )
        if family == "uniform":
            return UniformDensity(lo=float(params["lo"]), hi=float(params["hi"]))
    except KeyError as exc:
        raise ValidationError(f"density family {family!r} is missing parameter {exc}") from exc
    raise ValidationError(f"unknown density family {family!r}")
