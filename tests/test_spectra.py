"""Initial spectra: exact moments, equilibrium data, profile sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compfrac.spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    DivergentMoment,
    GaussianPulse,
    Monoenergetic,
    TransportParams,
    UnsupportedParams,
    equilibrium_spectrum,
    equilibrium_temperature,
)


def test_comptonization_params():
    assert COMPTONIZATION.p == 1
    assert COMPTONIZATION == TransportParams(2, 2, 2, 4)
    assert TransportParams(2, 3, 2, 4).p == 2


def test_monoenergetic_moments_are_powers():
    s = Monoenergetic()
    for n in range(2, 12):
        assert s.moment(n) == Fraction(4) ** (n - 2)


def test_bremsstrahlung_moments():
    s = Bremsstrahlung()
    # integral of x^(n-3) e^(-x/4) on (0, inf)
    for n in range(3, 10):
        assert s.moment(n) == math.factorial(n - 3) * Fraction(4) ** (n - 2)


def test_bremsstrahlung_number_diverges():
    with pytest.raises(DivergentMoment):
        Bremsstrahlung().moment(2)


def test_gaussian_moments_exact():
    g = GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1)
    assert g.moment(2) == 1
    assert g.moment(3) == 4
    assert g.moment(4) == Fraction(1601, 100)
    assert g.moment(5) == Fraction(1603, 25)


@given(n=st.integers(min_value=3, max_value=12))
def test_moment_log_convexity(n):
    """Moments of a positive density satisfy I_n^2 <= I_(n-1) I_(n+1);
    a single line is the degenerate case with equality."""
    g = GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1)
    assert g.moment(n) ** 2 <= g.moment(n - 1) * g.moment(n + 1)
    b = Bremsstrahlung()
    if n >= 4:
        assert b.moment(n) ** 2 <= b.moment(n - 1) * b.moment(n + 1)
    m = Monoenergetic()
    assert m.moment(n) ** 2 == m.moment(n - 1) * m.moment(n + 1)


def test_equilibrium_temperature_values():
    mono = equilibrium_temperature(Monoenergetic())
    assert mono.meaningful and mono.value == Fraction(4, 3)
    brems = equilibrium_temperature(Bremsstrahlung())
    assert not brems.meaningful and brems.value == 0
    # the smeared line keeps I_3/(3 I_2) = 4/3 exactly: the energy moment
    # only sees the mean, not the width
    pulse = equilibrium_temperature(GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1))
    assert pulse.meaningful and pulse.value == Fraction(4, 3)


def test_equilibrium_spectrum_wien_shape():
    eq = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=Fraction(4, 3))
    x = np.linspace(0.1, 30, 500)
    f = eq(x)
    # pure exponential: log-linear with slope -1/theta
    slopes = np.diff(np.log(f)) / np.diff(x)
    assert np.allclose(slopes, -0.75, rtol=1e-9)
    # number moment integrates to n_r
    xs = np.geomspace(1e-4, 200, 40000)
    number = np.trapezoid(xs**2 * eq(xs), xs)
    assert abs(number - 1.0) < 1e-6


def test_equilibrium_spectrum_zero_energy_prefactor():
    # f_eq(0) = n_r / (2 theta^3): the Wien normalization constant
    eq = equilibrium_spectrum(COMPTONIZATION, n_r=3, theta_eq=Fraction(4, 3))
    assert eq(np.array([0.0]))[0] == pytest.approx(81 / 128, rel=1e-12)


def test_equilibrium_spectrum_requires_positive_temperature():
    with pytest.raises(UnsupportedParams):
        equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=0)


def test_profile_function_shapes():
    x = np.geomspace(1e-2, 40, 300)
    brems = Bremsstrahlung().profile(x)
    assert np.allclose(brems, np.exp(-x / 4) / x**3)
    g = GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1)
    prof = g.profile(x)
    assert np.all(prof >= 0)
    peak = x[np.argmax(prof * x**2)]
    assert abs(peak - 4) < 0.1


def test_profile_function_rejects_raw_line():
    # the refusal points to the pulse the line supplies in its place
    with pytest.raises(UnsupportedParams, match="stand_in"):
        Monoenergetic().profile(np.array([4.0]))
    assert Monoenergetic().stand_in == GaussianPulse(mean=4, n0=1)
    assert Monoenergetic(x0=2, n0=3).stand_in == GaussianPulse(mean=2, n0=3)


@pytest.mark.parametrize(
    "spectrum, n",
    [
        (Monoenergetic(), Fraction(7, 2)),
        (Bremsstrahlung(), Fraction(7, 2)),
        (GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1), Fraction(7, 2)),
        # below n = 2 the pulse moment E[x^(n-2)] has no polynomial form
        (GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1), 1),
        # 8 sigma reaches past x = 0, so the untruncated expansion is wrong
        (GaussianPulse(mean=4, variance=1, n0=1), 3),
    ],
    ids=["line-half-index", "free-free-half-index", "pulse-half-index", "pulse-n1", "wide-pulse"],
)
def test_moment_without_rational_form_rejected(spectrum, n):
    with pytest.raises(UnsupportedParams, match="no rational closed form"):
        spectrum.moment(n)


@settings(max_examples=30)
@given(
    x0=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(20)),
    n=st.integers(min_value=3, max_value=9),
)
def test_line_moments_scale_exactly(x0, n):
    s = Monoenergetic(x0=x0, n0=1)
    assert s.moment(n) == x0 ** (n - 2)


@pytest.mark.parametrize(
    "spectrum, orders",
    [(Bremsstrahlung(), range(3, 7)), (GaussianPulse(4, Fraction(1, 100), 1), range(2, 7))],
    ids=["free-free", "pulse"],
)
def test_exact_moments_match_profile_quadrature(spectrum, orders):
    """The exact I_n that feed the series and the profile that starts the
    solve describe one spectrum."""
    x = np.geomspace(1e-8, 1e3, 200_001)
    f0 = spectrum.profile(x)
    for n in orders:
        assert np.trapezoid(x**n * f0, x) == pytest.approx(float(spectrum.moment(n)), rel=1e-6)
