"""Initial photon spectra, their exact power moments, and equilibrium forms.

Every spectrum is described by the occupation-style distribution f0(x)
over dimensionless energy x > 0.  The n-th power moment is

    I_n = integral of x^n f0(x) over (0, inf).

For the symbolic spectrum kinds the moments are evaluated in closed form
as exact rationals wherever the defining Gamma-function argument allows
it; tabulated data falls back to quadrature with an error estimate.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# scipy's integrate, interpolate and special modules are imported inside
# the tabulated, quadrature and tail-model functions that use them: the
# shipped scenarios never call those, and importing the three modules
# took most of the CLI's start-up time


class DivergentMoment(ValueError):
    """The defining moment integral does not converge."""


class NonConvergedQuadrature(ArithmeticError):
    """Numerical quadrature failed to reach the requested tolerance."""


class UnsupportedParams(ValueError):
    """The operation is not defined for these transport parameters."""


class BadTableFile(ValueError):
    """Malformed tabulated-spectrum CSV."""


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
        for name in ("i", "j", "k", "alpha"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
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

    def is_comptonization(self) -> bool:
        return (self.i, self.j, self.k, self.alpha) == (2, 2, 2, 4)

    def describe(self) -> str:
        return f"params(i={self.i}, j={self.j}, k={self.k}, alpha={self.alpha})"


COMPTONIZATION = TransportParams(Fraction(2), Fraction(2), Fraction(2), Fraction(4))


# ---------------------------------------------------------------------------
# spectrum kinds


@dataclass(frozen=True)
class Bremsstrahlung:
    """Optically thin bremsstrahlung emission spectrum x^-3 exp(-x/4)."""

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
    in closed form for integer n >= 2 whenever mean >= 8 sigma.
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

    def describe(self) -> str:
        return f"gaussian(mean={self.mean}, variance={self.variance}, n0={self.n0})"


@dataclass(frozen=True)
class Tabulated:
    """Spectrum sampled at strictly increasing abscissae.

    Treated as zero below the first sample; beyond the last sample a
    power-law or exponential tail is fitted for moment integrals.
    """

    x: tuple
    f0: tuple
    source: str = "<memory>"

    def __post_init__(self):
        xa = np.asarray(self.x, dtype=float)
        fa = np.asarray(self.f0, dtype=float)
        if xa.ndim != 1 or xa.shape != fa.shape or len(xa) < 2:
            raise BadTableFile(f"{self.source}: need two equal-length columns, >= 2 rows")
        if not np.all(np.isfinite(xa)) or not np.all(np.isfinite(fa)):
            raise BadTableFile(f"{self.source}: non-finite entries")
        if xa[0] <= 0 or np.any(np.diff(xa) <= 0):
            raise BadTableFile(f"{self.source}: x must be strictly increasing and positive")
        if np.any(fa < 0):
            raise BadTableFile(f"{self.source}: negative spectrum values")
        object.__setattr__(self, "x", tuple(float(v) for v in xa))
        object.__setattr__(self, "f0", tuple(float(v) for v in fa))

    def interpolant(self) -> Callable[[np.ndarray], np.ndarray]:
        from scipy.interpolate import PchipInterpolator

        pch = PchipInterpolator(np.array(self.x), np.array(self.f0))

        def f(x):
            x = np.asarray(x, dtype=float)
            inside = (x >= self.x[0]) & (x <= self.x[-1])
            return np.where(inside, pch(np.clip(x, self.x[0], self.x[-1])), 0.0)

        return f

    def describe(self) -> str:
        return f"tabulated({self.source}, {len(self.x)} samples)"


InitialSpectrum = Bremsstrahlung | Monoenergetic | GaussianPulse | Tabulated


def load_tabulated(path) -> Tabulated:
    """Read a 2-column CSV with header ``x,f0``."""
    path = Path(path)
    xs: list[float] = []
    fs: list[float] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["x", "f0"]:
                raise BadTableFile(f"{path}: expected header 'x,f0'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    xs.append(float(row[0]))
                    fs.append(float(row[1]))
                except (ValueError, IndexError):
                    raise BadTableFile(f"{path}: bad row at line {lineno}: {row!r}")
    except OSError as exc:
        raise BadTableFile(f"{path}: {exc}") from exc
    return Tabulated(x=tuple(xs), f0=tuple(fs), source=str(path))


def profile_function(spectrum) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized pointwise evaluator for f0(x).

    A monoenergetic line has no pointwise profile; callers that need one
    (the grid-based solver) substitute a narrow gaussian pulse first.
    """
    if isinstance(spectrum, Bremsstrahlung):

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = np.exp(-x[pos] / 4.0) / x[pos] ** 3
            return out

        return f
    if isinstance(spectrum, GaussianPulse):

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = spectrum.number_density(x[pos]) / x[pos] ** 2
            return out

        return f
    if isinstance(spectrum, Tabulated):
        return spectrum.interpolant()
    if isinstance(spectrum, EquilibriumSpectrum):
        return lambda x: spectrum(x)
    if isinstance(spectrum, Monoenergetic):
        raise UnsupportedParams(
            "a monoenergetic line is a distribution, not a function; "
            "replace it with a narrow GaussianPulse for pointwise use"
        )
    raise UnsupportedParams(f"no profile rule for {type(spectrum).__name__}")


# ---------------------------------------------------------------------------
# moments


def initial_moment(spectrum: InitialSpectrum, n) -> Fraction | float:
    """The moment I_n of the initial spectrum.

    Returns an exact Fraction whenever the closed form is rational
    (symbolic kinds, suitable integer n); otherwise a float from the
    Gamma-function form or from quadrature.  Raises DivergentMoment when
    the integral does not converge.
    """
    n = _as_index(n)
    if isinstance(spectrum, Monoenergetic):
        return _moment_monoenergetic(spectrum, n)
    if isinstance(spectrum, Bremsstrahlung):
        return _moment_bremsstrahlung(n)
    if isinstance(spectrum, GaussianPulse):
        return _moment_gaussian(spectrum, n)
    if isinstance(spectrum, Tabulated):
        value, _err = tabulated_moment(spectrum, n)
        return value
    raise TypeError(f"not a spectrum: {spectrum!r}")


def _as_index(n) -> Fraction:
    try:
        return Fraction(n)
    except (TypeError, ValueError):
        # non-rational float index: keep as an exact binary fraction
        return Fraction(float(n))


def _moment_monoenergetic(s: Monoenergetic, n: Fraction) -> Fraction | float:
    # delta sifting: I_n = n0 * x0^(n-2)
    shift = n - 2
    if shift.denominator == 1:
        return s.n0 * s.x0 ** int(shift)
    return float(s.n0) * float(s.x0) ** float(shift)


def _moment_bremsstrahlung(n: Fraction) -> Fraction | float:
    # I_n = Gamma(n-2) * 4^(n-2); the integrand x^(n-3) exp(-x/4) is
    # integrable at the origin only for n > 2
    if n <= 2:
        raise DivergentMoment(f"bremsstrahlung moment diverges for n = {n} <= 2")
    arg = n - 2
    if arg.denominator == 1:
        m = int(arg)
        return Fraction(math.factorial(m - 1)) * Fraction(4) ** m
    return math.gamma(float(arg)) * 4.0 ** float(arg)


def _gauss_upper_mass(z: float) -> float:
    """P(Z >= z) for a standard normal variable."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _moment_gaussian(s: GaussianPulse, n: Fraction) -> Fraction | float:
    # Since x^2 f0 is the Gaussian density, I_n = n0 E[x^(n-2)].
    m = n - 2
    if s.narrow() and m.denominator == 1 and m >= 0:
        # untruncated central-moment expansion; the 8-sigma truncation
        # correction is below 1e-14 relative and is deliberately ignored
        mm = int(m)
        total = Fraction(0)
        for l in range(mm // 2 + 1):
            total += (
                Fraction(math.comb(mm, 2 * l))
                * s.mean ** (mm - 2 * l)
                * s.variance**l
                * Fraction(_double_factorial_odd(l))
            )
        return s.n0 * total
    a = s.lower_cut
    if a == 0.0 and n <= 1:
        raise DivergentMoment(
            f"gaussian pulse reaching x=0 has divergent moment for n = {n} <= 1"
        )
    from scipy.integrate import quad

    exponent = float(m)

    def integrand(x):
        return float(x**exponent * s.number_density(x))

    mu, sig = float(s.mean), math.sqrt(float(s.variance))
    pts = [p for p in (mu - 2 * sig, mu, mu + 2 * sig) if a < p]
    # quad ignores interior break points on infinite intervals; split manually
    hi = mu + 40 * sig
    v1, e1 = quad(integrand, a, hi, points=pts, limit=200, epsrel=1e-13, epsabs=0.0)
    v2, e2 = quad(integrand, hi, np.inf, limit=200, epsrel=1e-13, epsabs=1e-300)
    value, err = v1 + v2, e1 + e2
    if not math.isfinite(value) or err > 1e-8 * abs(value) + 1e-290:
        raise NonConvergedQuadrature(
            f"gaussian moment n={n}: error estimate {err:.2e} for value {value:.6e}"
        )
    return value


def _double_factorial_odd(l: int) -> int:
    """(2l-1)!! with the empty product equal to 1."""
    out = 1
    for v in range(2 * l - 1, 0, -2):
        out *= v
    return out


_GL_NODES_16, _GL_WEIGHTS_16 = np.polynomial.legendre.leggauss(16)
_GL_NODES_8, _GL_WEIGHTS_8 = np.polynomial.legendre.leggauss(8)


def tabulated_moment(spectrum: Tabulated, n, rtol: float = 1e-12) -> tuple[float, float]:
    """Moment of a tabulated spectrum with an error estimate.

    The body integral uses fixed Gauss-Legendre panels per sample
    interval on a monotone cubic interpolant (16-point, checked against
    8-point); the region beyond the last sample uses a fitted
    exponential or power-law tail.  The returned error combines the
    panel check with the tail-fit residual.
    """
    from scipy.interpolate import PchipInterpolator

    n = float(_as_index(n))
    x = np.array(spectrum.x)
    f = np.array(spectrum.f0)
    pch = PchipInterpolator(x, f)

    def body(nodes, weights):
        mid = 0.5 * (x[1:] + x[:-1])
        half = 0.5 * (x[1:] - x[:-1])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = pts**n * pch(pts)
        return float(np.sum(half * (vals @ weights)))

    coarse = body(_GL_NODES_8, _GL_WEIGHTS_8)
    fine = body(_GL_NODES_16, _GL_WEIGHTS_16)
    body_err = abs(fine - coarse)

    tail, tail_err = _tail_integral(x, f, n)
    value = fine + tail
    err = body_err + tail_err
    # the fixed-panel scheme is effectively exact for the cubic interpolant,
    # so a body mismatch means the quadrature itself failed; the tail-model
    # uncertainty is irreducible and is reported, not gated
    if value != 0 and body_err > 10 * rtol * abs(value) + 1e-300:
        raise NonConvergedQuadrature(
            f"tabulated moment n={n}: panel check {body_err:.2e} vs value {value:.6e}"
        )
    return value, err


def _tail_integral(x: np.ndarray, f: np.ndarray, n: float) -> tuple[float, float]:
    """Integral of x^n times the fitted tail beyond the last sample."""
    m = min(5, len(x))
    xs, fs = x[-m:], f[-m:]
    good = fs > 0
    if good.sum() < 3 or f[-1] == 0:
        return 0.0, 0.0
    xs, fs = xs[good], fs[good]
    lx, lf = np.log(xs), np.log(fs)

    # exponential model log f = a - b x
    be, ae = np.polyfit(xs, lf, 1)
    res_e = float(np.sqrt(np.mean((ae + be * xs - lf) ** 2)))
    # power model log f = a - s log x
    bp, ap = np.polyfit(lx, lf, 1)
    res_p = float(np.sqrt(np.mean((ap + bp * lx - lf) ** 2)))

    x_end = x[-1]
    if res_e <= res_p and be < 0:
        from scipy.integrate import quad
        from scipy.special import gammaincc

        b = -be
        amp = math.exp(ae)
        # integral of x^n exp(-b x) from x_end: upper incomplete gamma
        if n > -1:
            val = amp * b ** (-(n + 1)) * gammaincc(n + 1, b * x_end) * math.gamma(n + 1)
        else:
            val, _ = quad(lambda t: t**n * amp * math.exp(-b * t), x_end, np.inf)
        return val, val * max(res_e, 1e-12)
    s = -bp
    if s <= n + 1:
        raise DivergentMoment(
            f"tabulated spectrum tail falls like x^-{s:.3g}; moment n={n} diverges"
        )
    amp = math.exp(ap)
    val = amp * x_end ** (n - s + 1) / (s - n - 1)
    return val, val * max(res_p, 1e-12)


# ---------------------------------------------------------------------------
# normalization and equilibria


@dataclass(frozen=True)
class NormalizationReport:
    """Result of the temperature-normalization check theta(0) = 1."""

    ratio: Fraction | float
    passed: bool
    constrained: bool
    detail: str


def check_temperature_normalization(
    spectrum: InitialSpectrum,
    params: TransportParams = COMPTONIZATION,
    tol: float = 1e-9,
) -> NormalizationReport:
    """Check the closure condition linking theta to the conserved moments.

    For the Comptonization family (j = k, alpha = i + 2) the energy
    moment is conserved only if I_{i+j}(0) = (i+k) I_{i+k-1}(0), which
    for the standard parameters reads I_4(0) = 4 I_3(0).  Parameter sets
    outside that family carry no such constraint: theta(0) = 1 holds by
    definition and the check passes trivially.
    """
    if params.j == params.k and params.alpha == params.i + 2:
        num = initial_moment(spectrum, params.i + params.j)
        den = initial_moment(spectrum, params.i + params.k - 1)
        factor = params.i + params.k
        ratio = num / (factor * den)
        if isinstance(ratio, Fraction):
            passed = ratio == 1
        else:
            passed = abs(ratio - 1.0) <= tol
        return NormalizationReport(
            ratio=ratio,
            passed=passed,
            constrained=True,
            detail=f"I_{params.i + params.j}(0) / ({factor} I_{params.i + params.k - 1}(0))",
        )
    return NormalizationReport(
        ratio=Fraction(1),
        passed=True,
        constrained=False,
        detail="theta(0) = 1 by definition; no closure constraint for these params",
    )


@dataclass(frozen=True)
class EquilibriumTemperature:
    """Asymptotic temperature; meaningful only when photon number is finite."""

    value: Fraction | float
    meaningful: bool
    note: str = ""


def equilibrium_temperature(
    spectrum: InitialSpectrum, params: TransportParams = COMPTONIZATION
) -> EquilibriumTemperature:
    """theta_eq = I_3(0) / (3 I_2(0)), from photon number and energy conservation.

    The argument requires the Comptonization parameters, where both I_2
    (number) and I_3 (energy) are conserved, pinning the asymptotic Wien
    temperature at one third of the mean photon energy.
    """
    if not params.is_comptonization():
        raise UnsupportedParams(
            "equilibrium temperature relies on number and energy conservation, "
            "available only for i=j=k=2, alpha=4"
        )
    energy = initial_moment(spectrum, 3)
    try:
        number = initial_moment(spectrum, 2)
    except DivergentMoment:
        return EquilibriumTemperature(
            value=Fraction(0),
            meaningful=False,
            note="photon number diverges; mean energy is zero and no steady state exists",
        )
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

    def number_density(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) ** float(self.params.i) * self(x)

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
