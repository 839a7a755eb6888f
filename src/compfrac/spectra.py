"""Initial photon spectra, their exact power moments, and equilibrium forms.

Every spectrum is described by the occupation-style distribution f0(x)
over dimensionless energy x > 0.  The n-th power moment is

    I_n = integral of x^n f0(x) over (0, inf).

Each initial spectrum kind carries both of its rules: ``moment(n)``, the
exact I_n that feeds the derivative series, and ``profile(x)``, the
pointwise f0 that starts the transport solve (a line, which has none,
names its ``stand_in`` pulse).  Every moment is exact and rational; a
moment without a rational closed form (a non-integer index, or a pulse
too wide for the untruncated Gaussian expansion) is rejected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np


class NumericalFailure(Exception):
    """A computation its inputs make impossible (a pole hit, a solve that cannot
    go on, ...); each keeps its builtin base, and the command line exits 2 on any."""


class DivergentMoment(ValueError):
    """The defining moment integral does not converge."""


class UnsupportedParams(NumericalFailure, ValueError):
    """The operation is not defined, or has no exact form, for these parameters."""


class DegenerateAlphaWarning(UserWarning):
    """alpha == i makes the temperature function identically constant."""


@dataclass(frozen=True)
class TransportParams:
    """Exponents of the transport equation and the temperature moment index.

    The equation evolves f(x, y) through a flux combining a drift term
    x^j f / theta and a diffusion term x^k df/dx inside a divergence
    weighted by x^i.  theta(y) is the moment ratio I_alpha(y)/I_alpha(0).
    The combination p = j - k + 1 sets the shape of the equilibrium
    exponential exp(-x^p / (p theta)).
    """

    i: Fraction
    j: Fraction
    k: Fraction
    alpha: Fraction

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, Fraction(getattr(self, f.name)))
        if self.alpha == self.i:
            warnings.warn(
                "alpha equals i: the temperature function is constant and the "
                "problem degenerates to a linear equation",
                DegenerateAlphaWarning,
                stacklevel=2,
            )

    @property
    def p(self) -> Fraction:
        return self.j - self.k + 1

    def describe(self) -> str:
        return f"params(i={self.i}, j={self.j}, k={self.k}, alpha={self.alpha})"


COMPTONIZATION = TransportParams(Fraction(2), Fraction(2), Fraction(2), Fraction(4))


# ---------------------------------------------------------------------------
# spectrum kinds


@dataclass(frozen=True)
class Bremsstrahlung:
    """Optically thin bremsstrahlung emission spectrum x^-3 exp(-x/4)."""

    def moment(self, n) -> Fraction:
        # I_n = Gamma(n-2) * 4^(n-2); the integrand x^(n-3) exp(-x/4) is
        # integrable at the origin only for n > 2
        n = Fraction(n)
        if n <= 2:
            raise DivergentMoment(f"bremsstrahlung moment diverges for n = {n} <= 2")
        arg = n - 2
        if arg.denominator != 1:
            raise UnsupportedParams(f"bremsstrahlung moment I_{n} has no rational closed form")
        m = int(arg)
        return Fraction(math.factorial(m - 1)) * Fraction(4) ** m

    def profile(self, x) -> np.ndarray:
        return _on_positive(x, lambda v: np.exp(-v / 4.0) / v**3)

    def describe(self) -> str:
        return "bremsstrahlung"


@dataclass(frozen=True)
class Monoenergetic:
    """Delta-function line at energy x0 carrying number density n0.

    f0(x) = n0 x0^-2 delta(x - x0), so that the photon number moment I_2
    equals n0 exactly.
    """

    x0: Fraction = Fraction(4)
    n0: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "x0", Fraction(self.x0))
        object.__setattr__(self, "n0", Fraction(self.n0))
        if self.x0 <= 0 or self.n0 <= 0:
            raise ValueError("monoenergetic spectrum requires x0 > 0 and n0 > 0")

    def moment(self, n) -> Fraction:
        # delta sifting: I_n = n0 * x0^(n-2)
        n = Fraction(n)
        shift = n - 2
        if shift.denominator != 1:
            raise UnsupportedParams(f"line moment I_{n} has no rational closed form")
        return self.n0 * self.x0 ** int(shift)

    @property
    def stand_in(self) -> GaussianPulse:
        """The narrow pulse of default variance with the line's energy and
        number, which a grid-based solve starts from in its place."""
        return GaussianPulse(mean=self.x0, n0=self.n0)

    def profile(self, x):
        raise UnsupportedParams(
            "a monoenergetic line is a distribution, not a function; "
            "use its stand_in pulse for pointwise use"
        )

    def describe(self) -> str:
        return f"monoenergetic(x0={self.x0}, n0={self.n0})"


@dataclass(frozen=True)
class GaussianPulse:
    """Narrow Gaussian photon-number pulse, the smooth stand-in for a line.

    The number density x^2 f0(x) is a Gaussian of the given mean and
    variance carrying total number n0, truncated at max(0, mean - 8 sigma)
    and renormalized (x is physically non-negative).  With the default
    variance the truncation correction is far below rational precision,
    so exact moments are computed from the untruncated form; they exist
    in closed form for integer n >= 2 whenever mean >= 8 sigma, and any
    other moment is rejected.
    """

    mean: Fraction = Fraction(4)
    variance: Fraction = Fraction(1, 100)
    n0: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "mean", Fraction(self.mean))
        object.__setattr__(self, "variance", Fraction(self.variance))
        object.__setattr__(self, "n0", Fraction(self.n0))
        if self.mean <= 0 or self.variance <= 0 or self.n0 <= 0:
            raise ValueError("gaussian pulse requires mean, variance, n0 > 0")

    @property
    def lower_cut(self) -> float:
        return max(0.0, float(self.mean) - 8.0 * math.sqrt(float(self.variance)))

    def narrow(self) -> bool:
        """True when the 8-sigma truncation stays above x = 0."""
        return self.mean * self.mean >= 64 * self.variance

    def number_density(self, x: np.ndarray) -> np.ndarray:
        """x^2 f0(x): the truncated, renormalized Gaussian times n0."""
        mu = float(self.mean)
        sig = math.sqrt(float(self.variance))
        a = self.lower_cut
        z = (np.asarray(x, dtype=float) - mu) / sig
        norm = float(self.n0) / (
            sig * math.sqrt(2 * math.pi) * _gauss_upper_mass((a - mu) / sig)
        )
        out = norm * np.exp(-0.5 * z * z)
        return np.where(np.asarray(x) >= a, out, 0.0)

    def moment(self, n) -> Fraction:
        # Since x^2 f0 is the Gaussian density, I_n = n0 E[x^(n-2)].
        n = Fraction(n)
        m = n - 2
        if not (self.narrow() and m.denominator == 1 and m >= 0):
            raise UnsupportedParams(f"{self.describe()} moment I_{n} has no rational closed form")
        # untruncated central-moment expansion; the 8-sigma truncation
        # correction is below 1e-14 relative and is deliberately ignored.
        # math.prod(range(2l - 1, 0, -2)) is (2l - 1)!!, with (-1)!! = 1
        mm = int(m)
        total = Fraction(0)
        for l in range(mm // 2 + 1):
            total += (
                Fraction(math.comb(mm, 2 * l))
                * self.mean ** (mm - 2 * l)
                * self.variance**l
                * Fraction(math.prod(range(2 * l - 1, 0, -2)))
            )
        return self.n0 * total

    def profile(self, x) -> np.ndarray:
        return _on_positive(x, lambda v: self.number_density(v) / v**2)

    def describe(self) -> str:
        return f"gaussian(mean={self.mean}, variance={self.variance}, n0={self.n0})"


InitialSpectrum = Bremsstrahlung | Monoenergetic | GaussianPulse


def _on_positive(x, rule) -> np.ndarray:
    """rule(x) where x > 0 and 0 elsewhere, for a profile vanishing off (0, inf)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = rule(x[pos])
    return out


def _gauss_upper_mass(z: float) -> float:
    """P(Z >= z) for a standard normal variable."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# equilibria


@dataclass(frozen=True)
class EquilibriumTemperature:
    """Asymptotic temperature.  When photon number diverges, no steady state
    exists: meaningful is False and value is Fraction(0)."""

    value: Fraction
    meaningful: bool


def equilibrium_temperature(spectrum: InitialSpectrum) -> EquilibriumTemperature:
    """theta_eq = I_3(0) / (3 I_2(0)), from photon number and energy conservation.

    The argument holds for the Comptonization parameters, where both I_2
    (number) and I_3 (energy) are conserved, pinning the asymptotic Wien
    temperature at one third of the mean photon energy.
    """
    energy = spectrum.moment(3)
    try:
        number = spectrum.moment(2)
    except DivergentMoment:
        return EquilibriumTemperature(value=Fraction(0), meaningful=False)
    theta = energy / (3 * number)
    return EquilibriumTemperature(value=theta, meaningful=True)


@dataclass(frozen=True)
class EquilibriumSpectrum:
    """Zero-flux steady state f_eq(x) = C exp(-x^p / (p theta)).

    Normalized so that the number moment integral of x^i f_eq equals n_r.
    For i=j=k=2 this is the Wien spectrum n_r/(2 theta^3) exp(-x/theta).
    """

    params: TransportParams
    n_r: float
    theta: float
    prefactor: float

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = float(self.params.p)
        return self.prefactor * np.exp(-(x**p) / (p * self.theta))

    profile = __call__

    def describe(self) -> str:
        return f"equilibrium(theta={self.theta:.6g}, n_r={self.n_r:.6g})"


def equilibrium_spectrum(params: TransportParams, n_r, theta_eq) -> EquilibriumSpectrum:
    """Construct the equilibrium spectrum for the given parameters."""
    p = params.p
    if p <= 0 or (params.i + 1) / p <= 0:
        raise UnsupportedParams(
            f"no normalizable equilibrium spectrum: (i+1)/p = {(params.i + 1)}/{p} "
            "must be positive with p > 0"
        )
    n_r = float(n_r)
    theta_eq = float(theta_eq)
    if theta_eq <= 0:
        raise UnsupportedParams("equilibrium spectrum requires theta_eq > 0")
    ip = float((params.i + 1) / p)
    pf = float(p)
    prefactor = n_r * pf / (math.gamma(ip) * (pf * theta_eq) ** ip)
    return EquilibriumSpectrum(params=params, n_r=n_r, theta=theta_eq, prefactor=prefactor)
