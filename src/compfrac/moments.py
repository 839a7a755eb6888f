"""Exact initial derivatives of the temperature function.

The temperature theta(y) = I_alpha(y)/I_alpha(0) obeys a hierarchy in
which each power moment satisfies

    dI_n/dy = (n - i) [ (n + k - 1) I_{n+k-2} - I_{n+j-1} / theta ].

Both routes below advance truncated Taylor series (jets) of the moments
through this hierarchy in exact rational arithmetic, with Cauchy
products for I_{n+j-1}/theta and the series reciprocal of theta
(Taylor-mode differentiation; Griewank & Walther, Evaluating
Derivatives, 2nd ed. 2008, ch. 13).  The moment jets are in integers:
every jet shares one denominator per order, so each Cauchy product is an
integer dot product and each order is normalised by one gcd.  The series
of theta and 1/theta stay Fractions, one per order, whose quotient terms
(_quotient_term) take each dot product over one common denominator
(_dot).  They differ in how the temperature is recovered:

* the Comptonization route (i=j=k=2, alpha=4), where energy conservation
  closes the hierarchy: theta is the series quotient I_4/(4 I_3) over the
  moments I_3 ... I_{M+4};
* the general route, for any transport parameters: theta is the ratio
  I_alpha/I_alpha(0) over the lattice of indices reached from alpha by
  steps of k-2 and j-1, each expanded only as deep as still needed.

Both produce exact rational tables for exact rational moments; they must
agree wherever both apply, which is one of the package's core checks.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .spectra import (
    COMPTONIZATION,
    DegenerateAlphaWarning,
    InitialSpectrum,
    TransportParams,
    initial_moment,
)


def write_json(data, path) -> None:
    """Write an artifact as sorted, indented JSON and a final newline, in
    one write call (json.dump with indent streams thousands of small ones)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


class NonlinearSolveImpossible(ArithmeticError):
    """The data leave the temperature or its reciprocal undefined."""


class NormalizationError(ValueError):
    """The spectrum violates the closure condition theta(0) = 1."""


@dataclass(frozen=True)
class DerivativeTable:
    """Initial derivatives theta^(0)(0) ... theta^(M)(0), exact rationals."""

    values: tuple
    provenance: str
    params: TransportParams
    spectrum: str
    moment_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if self.values[0] != 1:
            raise NormalizationError(
                f"temperature at y=0 must be exactly 1, got {self.values[0]}"
            )

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @cached_property
    def maclaurin(self) -> tuple:
        """Series coefficients theta^(n)(0)/n! as (integer numerators, one
        common denominator), computed once per table."""
        dens = [v.denominator * math.factorial(n) for n, v in enumerate(self.values)]
        common = math.lcm(*dens)
        return tuple(v.numerator * (common // d) for v, d in zip(self.values, dens)), common

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def truncated(self, order: int) -> "DerivativeTable":
        if order > self.order:
            raise ValueError(f"table holds orders 0..{self.order}, asked for {order}")
        return DerivativeTable(
            values=self.values[: order + 1],
            provenance=self.provenance,
            params=self.params,
            spectrum=self.spectrum,
            moment_indices=self.moment_indices,
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.derivative-table/1",
            "provenance": self.provenance,
            "exact": True,  # every table is exact; kept for schema /1 readers
            "spectrum": self.spectrum,
            "params": {
                "i": str(self.params.i),
                "j": str(self.params.j),
                "k": str(self.params.k),
                "alpha": str(self.params.alpha),
            },
            "moment_indices": [str(ix) for ix in self.moment_indices],
            "values": [
                {
                    "n": n,
                    "numerator": str(v.numerator),
                    "denominator": str(v.denominator),
                    "float": float(v),
                }
                for n, v in enumerate(self.values)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DerivativeTable":
        if data.get("schema") != "compfrac.derivative-table/1":
            raise ValueError(f"unknown schema: {data.get('schema')!r}")
        p = data["params"]
        params = TransportParams(
            Fraction(p["i"]), Fraction(p["j"]), Fraction(p["k"]), Fraction(p["alpha"])
        )
        rows = sorted(data["values"], key=lambda r: r["n"])
        values = tuple(Fraction(int(r["numerator"]), int(r["denominator"])) for r in rows)
        return cls(
            values=values,
            provenance=data["provenance"],
            params=params,
            spectrum=data.get("spectrum", ""),
            moment_indices=tuple(Fraction(s) for s in data.get("moment_indices", [])),
        )

    @classmethod
    def load_json(cls, path) -> "DerivativeTable":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Taylor jets: list c holds the coefficient of y^c


def _dot(xs: list, ys) -> Fraction:
    """sum_r xs[r] ys[r] for Fractions, accumulated over one common
    denominator and normalised once."""
    dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
    common = math.lcm(*dens)
    return Fraction(
        sum(x.numerator * y.numerator * (common // d) for x, y, d in zip(xs, ys, dens)),
        common,
    )


def _quotient_term(num_c: Fraction, den: list, q: list) -> Fraction:
    """Next coefficient of q = num/den, from num's coefficient and q so far."""
    c = len(q)
    return (num_c - _dot(q, den[c:0:-1])) / den[0]


def _hierarchy_terms(params: TransportParams, n: Fraction) -> tuple:
    """dI_n/dy as (coefficient, index, divided by theta) terms; zero terms
    are dropped, so at n = i the moment is constant and nothing is read."""
    pre = n - params.i
    terms = (
        (pre * (n + params.k - 1), n + params.k - 2, False),
        (-pre, n + params.j - 1, True),
    )
    return tuple(t for t in terms if t[0] != 0)


class _Jets:
    """Taylor jets of the moments I_n, advanced through the hierarchy.

    Every jet shares one denominator per order: jets[n][c] is an integer
    numerator over dens[c].  The hierarchy coefficients are integers over
    the common denominator ``scale``.  So each new coefficient is one
    integer sum of products, and each order is normalised by one gcd.
    """

    def __init__(self, initial: dict, terms: dict, depth: dict):
        den = math.lcm(*(v.denominator for v in initial.values()))
        self.dens = [den]
        self.jets = {n: [v.numerator * (den // v.denominator)] for n, v in initial.items()}
        grows = [n for n in initial if depth[n] > 0]
        self.scale = math.lcm(*(t[0].denominator for n in grows for t in terms[n]))
        # per growing moment: its jet, its depth and its terms, each holding
        # an integer coefficient and the jet it reads
        self.rules = [
            (
                self.jets[n],
                depth[n],
                tuple(
                    (coeff.numerator * (self.scale // coeff.denominator), self.jets[m], cool)
                    for coeff, m, cool in terms[n]
                ),
            )
            for n in grows
        ]

    def __getitem__(self, key: tuple) -> Fraction:
        n, c = key
        return Fraction(self.jets[n][c], self.dens[c])

    def advance(self, recip: list, c: int) -> None:
        """Append coefficient c+1 to every jet expanded beyond c; recip
        holds the coefficients 0..c of 1/theta."""
        dens = self.dens
        # Cauchy weights of 1/theta * I_m over one denominator for all m
        prods = [r.denominator * dens[c - k] for k, r in enumerate(recip)]
        common = math.lcm(*prods)
        weights = [r.numerator * (common // p) for r, p in zip(recip, prods)]
        lift = common // dens[c]  # exact: the r = 0 weight holds dens[c]
        rates = [
            (jet, sum(
                coeff * (sum(map(operator.mul, weights, src[c::-1])) if cool else lift * src[c])
                for coeff, src, cool in rule
            ))
            for jet, depth, rule in self.rules
            if depth > c
        ]
        den = common * self.scale * (c + 1)
        g = math.gcd(den, *(rate for _, rate in rates))
        dens.append(den // g)
        for jet, rate in rates:
            jet.append(rate // g)


def _derivatives(theta: list) -> tuple:
    """theta^(m)(0) = m! [y^m] theta."""
    return tuple(math.factorial(m) * t for m, t in enumerate(theta))


# ---------------------------------------------------------------------------
# Comptonization route


def comptonization_table_from_moments(
    moments: Mapping, order: int, spectrum_label: str = "<moments>"
) -> DerivativeTable:
    """Solve the closed Comptonization hierarchy for the derivative table.

    ``moments`` maps integer indices 3 .. order+4 to exact rational
    I_n(0) values (ints or Fractions; anything else is rejected).  Each
    moment I_n is expanded to order min(M, M+4-n), the depth that
    theta^(M) = M! [y^M] I_4/(4 I_3) still reads.  Moments with
    I_4(0) != 4 I_3(0) break the closure theta(0) = 1 and are rejected.
    """
    inexact = sorted(n for n, v in moments.items() if not isinstance(v, numbers.Rational))
    if inexact:
        raise TypeError(f"moments for indices {inexact} are not exact rationals")
    initial = {int(n): Fraction(v) for n, v in moments.items()}
    needed = range(3, order + 5)
    missing = [n for n in needed if n not in initial]
    if missing:
        raise ValueError(f"moments missing for indices {missing}")
    if initial[3] <= 0:
        raise NonlinearSolveImpossible("conserved energy moment I_3(0) must be positive")

    theta = [initial[4] / (4 * initial[3])]
    if order and theta[0] == 0:
        raise NonlinearSolveImpossible(
            "I_4(0) = 0 makes theta(0) = 0, so 1/theta has no series; "
            "the spectrum is degenerate"
        )
    if theta[0] != 1:
        raise NormalizationError(
            f"spectrum fails the closure check I_4(0) / (4 I_3(0)): "
            f"ratio = {theta[0]}; energy conservation needs theta(0) = 1"
        )

    terms = {n: _hierarchy_terms(COMPTONIZATION, Fraction(n)) for n in needed}
    depth = {n: min(order, order + 4 - n) for n in needed}
    jets = _Jets({n: initial[n] for n in needed}, terms, depth)
    i3 = [initial[3]]
    recip: list = []
    for c in range(order):
        recip.append(_quotient_term(Fraction(c == 0), theta, recip))
        jets.advance(recip, c)
        i3.append(jets[3, c + 1])
        theta.append(_quotient_term(jets[4, c + 1] / 4, i3, theta))

    return DerivativeTable(
        values=_derivatives(theta),
        provenance="comptonization-route",
        params=COMPTONIZATION,
        spectrum=spectrum_label,
        moment_indices=tuple(Fraction(n) for n in needed),
    )


def theta_derivatives_comptonization(spectrum: InitialSpectrum, order: int) -> DerivativeTable:
    """Derivative table for the standard Comptonization parameters."""
    moments = {n: initial_moment(spectrum, n) for n in range(3, order + 5)}
    return comptonization_table_from_moments(moments, order, spectrum.describe())


# ---------------------------------------------------------------------------
# general route


def theta_derivatives_general(
    params: TransportParams, spectrum: InitialSpectrum, order: int
) -> DerivativeTable:
    """Derivative table from the moment ratio theta = I_alpha/I_alpha(0).

    Works for any transport parameters; converges provided every moment
    index reached by the recursion (alpha shifted by multiples of k-2 and
    j-1) has a convergent integral.  An index first reached after s steps
    is expanded to order M - s.
    """
    if params.alpha == params.i:
        warnings.warn(
            "alpha equals i, so theta(y) is identically 1 and every derivative vanishes",
            DegenerateAlphaWarning,
            stacklevel=2,
        )
        values = (Fraction(1),) + (Fraction(0),) * order
        return DerivativeTable(
            values=values,
            provenance="general-route",
            params=params,
            spectrum=spectrum.describe(),
            moment_indices=(params.alpha,),
        )

    steps = {params.alpha: 0}
    terms: dict = {}
    frontier = [params.alpha]
    for s in range(1, order + 1):
        reached = []
        for n in frontier:
            terms[n] = _hierarchy_terms(params, n)
            for _, m, _ in terms[n]:
                if m not in steps:
                    steps[m] = s
                    reached.append(m)
        frontier = reached
    indices = sorted(steps)

    initial = {ix: Fraction(initial_moment(spectrum, ix)) for ix in indices}
    norm = initial[params.alpha]
    if norm == 0:
        raise NonlinearSolveImpossible(
            f"I_alpha(0) = 0 at alpha = {params.alpha}; theta is undefined"
        )
    jets = _Jets(initial, terms, {ix: order - s for ix, s in steps.items()})

    theta = [Fraction(1)]
    recip: list = []
    for c in range(order):
        recip.append(_quotient_term(Fraction(c == 0), theta, recip))
        jets.advance(recip, c)
        theta.append(jets[params.alpha, c + 1] / norm)

    return DerivativeTable(
        values=_derivatives(theta),
        provenance="general-route",
        params=params,
        spectrum=spectrum.describe(),
        moment_indices=tuple(indices),
    )
