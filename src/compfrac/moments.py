"""Exact initial derivatives of the temperature function.

The temperature theta(y) = I_alpha(y)/I_alpha(0) obeys a hierarchy in
which each power moment satisfies

    dI_n/dy = (n - i) [ (n + k - 1) I_{n+k-2} - I_{n+j-1} / theta ].

Both routes below advance truncated Taylor series (jets) of the moments
through this hierarchy in exact rational arithmetic, with Cauchy
products for I_{n+j-1}/theta and the series reciprocal of theta
(Taylor-mode differentiation; Griewank & Walther, Evaluating
Derivatives, 2nd ed. 2008, ch. 13), all in integers: every moment jet
shares one denominator per order, the series of theta and 1/theta keep
one per coefficient, and each new coefficient is one integer sum over
one lcm, reduced by one gcd.  Fractions appear only at the interface,
DerivativeTable.values.  The routes differ in how theta is recovered:

* the Comptonization route (i=j=k=2, alpha=4), where energy conservation
  closes the hierarchy: theta is the series quotient I_4/(4 I_3) over the
  moments I_3 ... I_{M+4};
* the general route, for any transport parameters: theta is the ratio
  I_alpha/I_alpha(0) over the lattice of indices reached from alpha by
  steps of k-2 and j-1, each expanded only as deep as still needed.

Both produce exact rational tables for exact rational moments and must
agree wherever both apply; sharing the jet engine (_Jets, _theta_derivatives),
that checks their theta rules, and the independent check of the whole is
the test oracle hierarchy_jets, a separate Fraction integrator.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .spectra import (
    COMPTONIZATION,
    InitialSpectrum,
    TransportParams,
)


class NonlinearSolveImpossible(ArithmeticError):
    """The data leave the temperature or its reciprocal undefined."""


class NormalizationError(ValueError):
    """The spectrum violates the closure condition theta(0) = 1."""


def rational_rows(values) -> list:
    """Exact rationals as {n, numerator, denominator, float} rows, the
    integers written in full.  Decimal carries them past the int <-> str
    digit limit (4300 by default), which the deepest free-free fraction
    coefficients exceed."""
    return [
        {
            "n": n,
            "numerator": str(Decimal(v.numerator)),
            "denominator": str(Decimal(v.denominator)),
            "float": float(v),
        }
        for n, v in enumerate(values)
    ]


def _field(data, key, parse=None, name=None):
    """data[key], through parse if given; a missing or unreadable field is
    one ValueError naming it, whatever the lookup or the parse raised."""
    try:
        value = data[key]
    except (LookupError, TypeError):
        raise ValueError(f"{name or key}: missing") from None
    try:
        return value if parse is None else parse(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{name or key}: cannot read {value!r}") from exc


def _integer(text) -> int:
    """An integer as rational_rows writes it, digits in full with an optional
    minus sign; a fraction part or an exponent is refused, not truncated."""
    if not (isinstance(text, str) and text.removeprefix("-").isdecimal()):
        raise ValueError("not an integer")
    return int(Decimal(text))


def _denominator(text) -> int:
    if (value := _integer(text)) <= 0:
        raise ValueError("not positive")
    return value


def rationals_from_rows(data, field: str) -> tuple:
    """The Fractions of the rational_rows rows in data[field], in n order;
    the n must be 0 .. len(rows) - 1, each once, or a value would be read
    at the wrong n.  A bad entry is a ValueError naming it, as field[k].key."""
    rows = _field(data, field)
    indices = [_field(row, "n", name=f"{field}[{k}].n") for k, row in enumerate(rows)]
    if set(indices) != set(range(len(rows))):
        raise ValueError(f"{field}: row indices must be 0..{len(rows) - 1} once each, got {indices}")
    return tuple(
        Fraction(_field(rows[k], "numerator", _integer, f"{field}[{k}].numerator"),
                 _field(rows[k], "denominator", _denominator, f"{field}[{k}].denominator"))
        for k in sorted(range(len(rows)), key=indices.__getitem__)
    )


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
        if self.values[:1] != (1,):
            got = self.values[0] if self.values else "no value"
            raise NormalizationError(f"temperature at y=0 must be exactly 1, got {got}")

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

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.derivative-table/1",
            "provenance": self.provenance,
            "exact": True,  # every table is exact; kept for schema /1 readers
            "spectrum": self.spectrum,
            "params": {f.name: str(getattr(self.params, f.name)) for f in fields(TransportParams)},
            "moment_indices": [str(ix) for ix in self.moment_indices],
            "values": rational_rows(self.values),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DerivativeTable":
        if data.get("schema") != "compfrac.derivative-table/1":
            raise ValueError(f"unknown schema: {data.get('schema')!r}")
        p = _field(data, "params")
        params = (_field(p, f.name, Fraction, f"params.{f.name}") for f in fields(TransportParams))
        return cls(
            values=rationals_from_rows(data, "values"),
            provenance=_field(data, "provenance"),
            params=TransportParams(*params),
            spectrum=data.get("spectrum", ""),
            moment_indices=_field(data, "moment_indices", lambda v: tuple(map(Fraction, v)))
            if "moment_indices" in data else (),
        )

    @classmethod
    def load_json(cls, path) -> "DerivativeTable":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Taylor jets: list c holds the coefficient of y^c


def _hierarchy_terms(params: TransportParams, n: Fraction) -> tuple:
    """dI_n/dy as (coefficient, index, divided by theta) terms; zero terms
    are dropped, so at n = i the moment is constant and nothing is read;
    integral parameters act as ints, so an int n costs no Fraction."""
    i, j, k = (x.numerator if x.denominator == 1 else x for x in (params.i, params.j, params.k))
    pre = n - i
    terms = ((pre * (n + k - 1), n + k - 2, False), (-pre, n + j - 1, True))
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

    def advance(self, recip: tuple, c: int) -> None:
        """Append coefficient c+1 to every jet expanded beyond c; recip
        holds 1/theta's coefficients 0..c as (numerators, denominators)."""
        dens = self.dens
        # Cauchy weights of 1/theta * I_m over one denominator for all m
        nums, rdens = recip
        prods = [d * dens[c - k] for k, d in enumerate(rdens)]
        common = math.lcm(*prods)
        weights = [n * (common // p) for n, p in zip(nums, prods)]
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


def _push(series: tuple, num: int, den: int) -> None:
    """Append num/den to (numerators, positive denominators), reduced."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    series[0].append(num // g)
    series[1].append(den // g)


def _quotient_coefficient(q: tuple, top: int, top_den: int, den: tuple) -> tuple:
    """Coefficient c = len(q) of q = num/den, from num's coefficient
    top/top_den: (top/top_den - sum_{r<c} q_r den_{c-r}) / den_0 as
    (numerator, denominator), one integer sum over one lcm."""
    (dn, dd), (qn, qd) = den, q
    c = len(qn)
    prods = [d * dd[c - r] for r, d in enumerate(qd)]
    common = math.lcm(top_den, *prods)
    rest = sum(n * dn[c - r] * (common // p) for r, (n, p) in enumerate(zip(qn, prods)))
    return (top * (common // top_den) - rest) * dd[0], common * dn[0]


def _theta_derivatives(jets: _Jets, order: int, theta_rule) -> tuple:
    """theta^(m)(0) = m! [y^m] theta, m = 0..order: for each c, 1/theta
    gains coefficient c, the jets advance to c+1, and theta gains
    theta_rule(theta, c+1), a (numerator, denominator) read off the jets."""
    theta, recip = ([1], [1]), ([1], [1])
    for c in range(order):
        if c:
            _push(recip, *_quotient_coefficient(recip, 0, 1, theta))
        jets.advance(recip, c)
        _push(theta, *theta_rule(theta, c + 1))
    return tuple(Fraction(math.factorial(m) * n, d) for m, (n, d) in enumerate(zip(*theta)))


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

    theta0 = initial[4] / (4 * initial[3])
    if order and theta0 == 0:
        raise NonlinearSolveImpossible(
            "I_4(0) = 0 makes theta(0) = 0, so 1/theta has no series; "
            "the spectrum is degenerate"
        )
    if theta0 != 1:
        raise NormalizationError(
            f"spectrum fails the closure check I_4(0) / (4 I_3(0)): "
            f"ratio = {theta0}; energy conservation needs theta(0) = 1"
        )

    terms = {n: _hierarchy_terms(COMPTONIZATION, n) for n in needed}
    depth = {n: min(order, order + 4 - n) for n in needed}
    jets = _Jets({n: initial[n] for n in needed}, terms, depth)
    i3, i4, dens = jets.jets[3], jets.jets[4], jets.dens
    return DerivativeTable(
        values=_theta_derivatives(
            jets, order, lambda q, c: _quotient_coefficient(q, i4[c], 4 * dens[c], (i3, dens))
        ),
        provenance="comptonization-route",
        params=COMPTONIZATION,
        spectrum=spectrum_label,
        moment_indices=tuple(Fraction(n) for n in needed),
    )


def theta_derivatives_comptonization(spectrum: InitialSpectrum, order: int) -> DerivativeTable:
    """Derivative table for the standard Comptonization parameters."""
    moments = {n: spectrum.moment(n) for n in range(3, order + 5)}
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
        # theta is identically 1 (TransportParams warned when it was built),
        # and I_alpha may diverge, so no moment is read
        values, indices = (Fraction(1),) + (Fraction(0),) * order, [params.alpha]
    else:
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

        initial = {ix: spectrum.moment(ix) for ix in indices}
        norm = initial[params.alpha]
        if norm == 0:
            raise NonlinearSolveImpossible(
                f"I_alpha(0) = 0 at alpha = {params.alpha}; theta is undefined"
            )
        jets = _Jets(initial, terms, {ix: order - s for ix, s in steps.items()})
        head, dens = jets.jets[params.alpha], jets.dens
        values = _theta_derivatives(
            jets, order, lambda _, c: (head[c] * norm.denominator, dens[c] * norm.numerator)
        )
    return DerivativeTable(
        values=values,
        provenance="general-route",
        params=params,
        spectrum=spectrum.describe(),
        moment_indices=tuple(indices),
    )
