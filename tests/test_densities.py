import math

import numpy as np
import pytest
from scipy import integrate as spint
from scipy.special import gammaln

import enerkin as ek
from conftest import quadrature_mass


FAMILIES = [
    ek.Exponential(1.0),
    ek.Exponential(2.5),
    ek.GammaDensity(2.0, 1.0),
    ek.GammaDensity(3.5, 0.7),
    ek.ShiftedGamma(2.0, 1.0, 1.0),
    ek.UniformDensity(0.0, 2.0),
    ek.Shifted(ek.Exponential(2.0), 1.0),
]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: type(f).__name__ + repr(f.support()))
def test_normalization_by_quadrature(fam):
    assert quadrature_mass(fam) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: type(f).__name__ + repr(f.support()))
def test_mean_matches_quadrature(fam):
    lo, hi = fam.support()
    cap = hi if np.isfinite(hi) else lo + 80.0
    val, _ = spint.quad(lambda x: x * float(fam.pdf(x)), lo, cap, limit=200)
    assert fam.mean() == pytest.approx(val, rel=1e-6)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: type(f).__name__ + repr(f.support()))
def test_cdf_is_integral_of_pdf(fam):
    lo, _ = fam.support()
    for x in (lo + 0.3, lo + 1.7):
        val, _ = spint.quad(lambda y: float(fam.pdf(y)), lo, x, limit=200)
        assert float(fam.cdf(x)) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: type(f).__name__ + repr(f.support()))
def test_sampling_matches_cdf(fam):
    rng = np.random.default_rng(42)
    draws = fam.sample(rng, size=20_000)
    assert ek.ks_distance(draws, fam.cdf) < 1.36 / np.sqrt(20_000)


def test_gamma_pdf_matches_scipy_log_gamma():
    # log Γ comes from math.lgamma; the two agree to a few ulp of log Γ(nu), and
    # at nu = 150, where log Γ is 600, one ulp is 1.1e-13 of the density
    beta = 1.3
    for nu in np.geomspace(0.05, 150.0, 81):
        x = nu / beta * np.array([0.1, 0.5, 1.0, 1.5, 3.0])
        ref = np.exp(nu * math.log(beta) + (nu - 1.0) * np.log(x) - beta * x - gammaln(nu))
        rel = np.abs(ek.GammaDensity(nu, beta).pdf(x) / ref - 1.0)
        assert rel.max() <= 1e-14 * max(1.0, abs(gammaln(nu))), nu


def test_parameter_validation():
    with pytest.raises(ek.ValidationError):
        ek.Exponential(0.0)
    with pytest.raises(ek.ValidationError):
        ek.GammaDensity(0.0, 1.0)
    with pytest.raises(ek.ValidationError):
        ek.UniformDensity(2.0, 1.0)
    with pytest.raises(ek.ValidationError):
        ek.Shifted(ek.Exponential(1.0), -1.0)


def test_tabulated_round_trip():
    values = np.array([0.5, 0.3, 0.15, 0.05]) / 0.5  # h = 0.5 on [0, 2]
    fam = ek.Tabulated(2.0, values / (values.sum() * 0.5))
    assert quadrature_mass(fam, x_cap=2.0) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(3)
    draws = fam.sample(rng, size=20_000)
    assert ek.ks_distance(draws, fam.cdf) < 1.36 / np.sqrt(20_000)


def test_tabulated_rejects_unnormalized():
    with pytest.raises(ek.ValidationError):
        ek.Tabulated(1.0, np.array([1.0, 2.0]))


def test_shifted_gamma_mean():
    fam = ek.ShiftedGamma(2.0, 1.0, 1.0)
    assert fam.mean() == pytest.approx(3.0)
    assert fam.pdf(0.5) == 0.0


def test_gamma_shape_detection():
    assert ek.Exponential(2.0).gamma_shape() == (1.0, 2.0)
    assert ek.GammaDensity(3.0, 0.5).gamma_shape() == (3.0, 0.5)
    assert ek.ShiftedGamma(2.0, 1.0, 1.0).gamma_shape() is None
    assert ek.UniformDensity(0, 1).gamma_shape() is None


def test_spec_round_trip():
    specs = [
        ({"family": "exponential", "beta": 2.0}, ek.Exponential(2.0)),
        ({"family": "gamma", "nu": 2.0, "beta": 3.0}, ek.GammaDensity(2.0, 3.0)),
        (
            {"family": "shifted_gamma", "nu": 1.5, "beta": 2.0, "shift": 0.5},
            ek.ShiftedGamma(1.5, 2.0, 0.5),
        ),
        ({"family": "uniform", "lo": 0.0, "hi": 2.0}, ek.UniformDensity(0.0, 2.0)),
    ]
    for spec, fam in specs:
        assert ek.density_from_spec(spec) == fam


def test_spec_rejects_zero_shape():
    with pytest.raises(ek.ValidationError):
        ek.density_from_spec({"family": "gamma", "nu": 0.0, "beta": 1.0})


def test_spec_rejects_unknown_family():
    with pytest.raises(ek.ValidationError):
        ek.density_from_spec({"family": "cauchy", "loc": 0.0})


class TestShiftedGammaIsAShiftedGamma:
    """``ShiftedGamma(nu, beta, shift)`` is ``Shifted(GammaDensity(nu, beta), shift)``
    bit for bit."""

    PARAMS = [(2.0, 1.0, 1.0), (0.5, 2.5, 0.0), (1.0, 0.7, 2.25), (7.5, 3.0, 0.125)]

    @staticmethod
    def bits(a):
        a = np.asarray(a)
        return (a.dtype, a.shape, a.tobytes())

    @pytest.mark.parametrize("nu, beta, shift", PARAMS)
    def test_pdf_cdf_mean_support(self, nu, beta, shift):
        fam = ek.ShiftedGamma(nu, beta, shift)
        ref = ek.Shifted(ek.GammaDensity(nu, beta), shift)
        xs = shift + np.array([-1.5, -1e-12, 0.0, 1e-12, 0.3, 1.0, 4.0, 40.0])
        for x in (xs, shift, shift - 0.5, shift + 0.5, xs.reshape(2, 4)):
            assert self.bits(fam.pdf(x)) == self.bits(ref.pdf(x))
            assert self.bits(fam.cdf(x)) == self.bits(ref.cdf(x))
        assert self.bits(fam.mean()) == self.bits(ref.mean())
        assert fam.support() == ref.support()

    @pytest.mark.parametrize("nu, beta, shift", PARAMS)
    def test_sample_draws(self, nu, beta, shift):
        fam = ek.ShiftedGamma(nu, beta, shift)
        ref = ek.Shifted(ek.GammaDensity(nu, beta), shift)
        for size in (None, 7, (2, 3)):
            a = fam.sample(np.random.default_rng(11), size=size)
            b = ref.sample(np.random.default_rng(11), size=size)
            assert self.bits(a) == self.bits(b)

    def test_parameters_equality_hash_and_gamma_shape(self):
        fam = ek.ShiftedGamma(2.0, 1.5, 0.5)
        assert (fam.nu, fam.beta, fam.shift) == (2.0, 1.5, 0.5)
        assert fam == ek.ShiftedGamma(2, 1.5, 0.5)
        assert hash(fam) == hash(ek.ShiftedGamma(2, 1.5, 0.5))
        assert fam != ek.ShiftedGamma(2.0, 1.5, 0.25)
        assert fam != ek.ShiftedGamma(3.0, 1.5, 0.5)
        assert fam != ek.Shifted(ek.GammaDensity(2.0, 1.5), 0.5)
        assert len({fam, ek.ShiftedGamma(2.0, 1.5, 0.5), ek.ShiftedGamma(2.0, 1.5)}) == 2
        assert repr(fam) == "ShiftedGamma(base=GammaDensity(nu=2.0, beta=1.5), offset=0.5)"
        # every parametric family compares and hashes by value, within its own class
        for make, args, other in [
            (ek.Exponential, (1.5,), (2.0,)),
            (ek.GammaDensity, (2.0, 1.5), (2.0, 1.0)),
            (ek.UniformDensity, (0.0, 2.0), (0.5, 2.0)),
            (ek.Shifted, (ek.GammaDensity(2.0, 1.5), 0.5), (ek.GammaDensity(2.0, 1.5), 0.25)),
            (ek.ShiftedGamma, (2.0, 1.5, 0.5), (2.0, 1.5, 0.25)),
        ]:
            a, b, c = make(*args), make(*args), make(*other)
            assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
            assert a != c and not a != b
            assert repr(a) == repr(b) != repr(c)
            assert repr(a).startswith(f"{make.__name__}(")
        assert ek.ShiftedGamma(2.0, 1.5).shift == 0.0
        assert ek.ShiftedGamma(2.0, 1.5).gamma_shape() == (2.0, 1.5)
        assert fam.gamma_shape() is None
        assert ek.Shifted(ek.GammaDensity(2.0, 1.5), 0.5).gamma_shape() is None

    def test_shifted_reads_its_base_gamma_shape_at_offset_zero(self):
        assert ek.Shifted(ek.GammaDensity(2.0, 1.5), 0.0).gamma_shape() == (2.0, 1.5)
        assert ek.Shifted(ek.Exponential(3.0), 0.0).gamma_shape() == (1.0, 3.0)
        assert ek.Shifted(ek.UniformDensity(0.0, 1.0), 0.0).gamma_shape() is None
        assert ek.Shifted(ek.Exponential(3.0), 0.5).gamma_shape() is None

    @pytest.mark.parametrize("args", [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, -0.5)])
    def test_invalid_parameters_rejected(self, args):
        with pytest.raises(ek.ValidationError):
            ek.ShiftedGamma(*args)
