"""Continued-fraction resummation of the temperature derivative series.

The Taylor series built from the initial derivatives diverges beyond a
finite radius, so the working representation is the equivalent
continued fraction

    Psi_N(y) = c0 / (1 + c1 y / (1 + c2 y / ( ... / (1 + cN y)))),

whose coefficients come from the classical two-dimensional quotient-
difference style recursion on the series coefficients.  Everything up
to evaluation is exact: coefficients and rational forms are Fractions at
the interface, computed inside in integers over shared denominators
(each recursion row is an integer vector, each fold level a pair of
integer polynomials over one denominator), with one gcd per row or
level instead of one per entry.

Each fraction is folded into rational forms P_n/Q_n once: the first
request for any level runs the three-term convergent recurrence over
every level 0..N and caches one RationalForm per level on the instance,
so selection, defect reports and the driving temperature all read the
same fold, and so do cf_eval (float) and cf_eval_exact (exact).  A form
holds the level's integer polynomials; its Fraction coefficients and its
float coefficients (each rounded once from the integers) are built on
first use.  Polynomials are evaluated by Horner's rule: _horner for
float coefficients, _homogeneous for integer ones at y = a/b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .moments import DerivativeTable


class PoleHit(ArithmeticError):
    """Evaluation ran into a vanishing denominator."""

    def __init__(self, y, level, message=None):
        self.y = y
        self.level = level
        super().__init__(
            message or f"denominator vanished at y={y!r} (fraction level {level})"
        )


@dataclass(frozen=True)
class ContinuedFraction:
    """Exact coefficients c0..cN plus the zero-pivot diagnostic.

    ``pivot_break`` is the level at which the coefficient recursion hit a
    zero pivot; the stored coefficients end just below it and represent
    the function exactly (a terminating fraction), which is why this is
    a diagnostic rather than an error.
    """

    coefficients: tuple
    source: str = ""
    pivot_break: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )
        if not self.coefficients:
            raise ValueError("a continued fraction needs at least c0")

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    @cached_property
    def _forms(self) -> tuple:
        return _fold(self)

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.continued-fraction/1",
            "source": self.source,
            "pivot_break": self.pivot_break,
            "coefficients": [
                {
                    "n": n,
                    "numerator": str(Decimal(c.numerator)),
                    "denominator": str(Decimal(c.denominator)),
                    "float": float(c),
                }
                for n, c in enumerate(self.coefficients)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContinuedFraction":
        if data.get("schema") != "compfrac.continued-fraction/1":
            raise ValueError(f"unknown schema: {data.get('schema')!r}")
        rows = sorted(data["coefficients"], key=lambda r: r["n"])
        # Decimal carries integers past the int <-> str digit limit (4300 by
        # default), which the deepest free-free coefficients exceed
        return cls(
            coefficients=tuple(
                Fraction(int(Decimal(r["numerator"])), int(Decimal(r["denominator"])))
                for r in rows
            ),
            source=data.get("source", ""),
            pivot_break=data.get("pivot_break"),
        )


def taylor_eval(table: DerivativeTable, level: int, y) -> float:
    """Taylor partial sum of theta(y) through the given order.

    The sum runs in exact integer arithmetic (y lifted to an exact binary
    fraction a/b) and is rounded exactly once, by one correctly rounded
    integer division.
    """
    _check_level(level, table.order, "table holds orders")
    series, common = table.maclaurin
    a, b = Fraction(y).as_integer_ratio()
    return _homogeneous(series[: level + 1], a, b) / (common * b**level)


def _check_level(level: int, top: int, holds: str) -> None:
    if not 0 <= level <= top:
        raise ValueError(f"{holds} 0..{top}, asked for {level}")


def _horner(coeffs: Sequence[float], y):
    """sum_k coeffs[k] y^k by Horner's rule for float coefficients;
    elementwise for a numpy array y."""
    total = 0
    for c in reversed(coeffs):
        total = total * y + c
    return total


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    """b^deg sum_k coeffs[k] (a/b)^k for integer coefficients, by Horner's
    rule in integers."""
    total, scale = 0, 1
    for c in reversed(coeffs):
        total = total * a + c * scale
        scale *= b
    return total


def cf_coefficients(table: DerivativeTable) -> ContinuedFraction:
    """Continued-fraction coefficients from the derivative table, exactly.

    Row zero of the working array holds the Taylor coefficients
    theta^(m)(0)/m!; each later row is built from the two above it and
    contributes its leading entry as the next coefficient.  A vanishing
    leading entry stops the recursion: the fraction terminates there.
    """
    series, common = table.maclaurin
    top = table.order
    coeffs = [Fraction(series[0], common)]
    pivot_break = None

    # rows are integer vectors known up to a scale: the recursion reads
    # only the ratios row[m+1]/row[0], so each row is divided by the gcd of
    # its entries and a coefficient keeps its denominator apart; the row
    # above row zero is 1, 0, 0, ..., whose ratios all vanish.  Row zero's
    # pivot is theta(0) = 1, which DerivativeTable enforces
    prev2, prev = [1] + [0] * (top + 1), series
    for n in range(1, top + 1):
        p0, q0 = prev[0], prev2[0]
        row = [prev2[m + 1] * p0 - prev[m + 1] * q0 for m in range(top - n + 1)]
        if row[0] == 0:
            # zero pivot: the fraction terminates at level n - 1 and the
            # coefficients so far represent the series exactly
            pivot_break = n
            break
        coeffs.append(Fraction(row[0], q0 * p0))
        g = math.gcd(*row)
        prev2, prev = prev, [v // g for v in row]

    return ContinuedFraction(
        coefficients=tuple(coeffs), source=table.spectrum, pivot_break=pivot_break
    )


# a denominator |Q(y)| at most this, relative to its natural scale
# sum_k |q_k| |y|^k, counts as a pole
_POLE_TOL = 1e-12


def cf_eval(cf: ContinuedFraction, level: int, y) -> float:
    """Psi_level(y) = P(y)/Q(y) by Horner's rule on the level's floats, the
    same floats that drive the solve; PoleHit where |Q(y)| is at most
    _POLE_TOL relative to its natural scale."""
    num, den, _ = to_rational(cf, level).floats
    yv = float(y)
    q = _horner(den, yv)
    if abs(q) <= _POLE_TOL * _abs_poly_scale(den, yv):
        raise PoleHit(yv, level)
    return _horner(num, yv) / q


def cf_eval_exact(cf: ContinuedFraction, level: int, y: Fraction) -> Fraction:
    """Exact rational evaluation of Psi_level at rational y, on the level's
    integer form."""
    try:
        return to_rational(cf, level).eval_exact(y)
    except PoleHit as exc:
        raise PoleHit(exc.y, level) from None


@dataclass(frozen=True)
class RationalForm:
    """Psi_N = P(y)/Q(y) as integer polynomials p, q (lowest order first)
    over their shared denominator q[0], so that Q(0) = 1."""

    p: tuple
    q: tuple

    @cached_property
    def numerator(self) -> tuple:
        return tuple(Fraction(x, self.q[0]) for x in self.p)

    @cached_property
    def denominator(self) -> tuple:
        return tuple(Fraction(x, self.q[0]) for x in self.q)

    @cached_property
    def floats(self) -> tuple:
        """(P, Q, Q') as float coefficient tuples, each equal to float() of
        the exact coefficient: one correctly rounded int / int division,
        without building the Fraction (a gcd on thousands of digits)."""
        d = self.q[0]
        return (
            tuple(x / d for x in self.p),
            tuple(x / d for x in self.q),
            tuple(l * x / d for l, x in enumerate(self.q) if l) or (0.0,),
        )

    def eval_exact(self, y) -> Fraction:
        """P(y)/Q(y) at rational y = a/b: one integer Horner of p and of q,
        with no Fraction built until the quotient."""
        y = Fraction(y)
        a, b = y.as_integer_ratio()
        den = _homogeneous(self.q, a, b) * b ** len(self.p)
        if den == 0:
            raise PoleHit(y, None, f"denominator root at y={y}")
        return Fraction(_homogeneous(self.p, a, b) * b ** len(self.q), den)


def to_rational(cf: ContinuedFraction, level: int) -> RationalForm:
    """The fraction truncated at ``level`` as one ratio of polynomials.

    Numerator degree is floor(level/2), denominator degree ceil(level/2),
    and Q(0) = 1.  The first call on a fraction folds every level at
    once (see _fold); later calls return the same cached objects.
    """
    _check_level(level, cf.truncation, "fraction holds levels")
    return cf._forms[level]


def _fold(cf: ContinuedFraction) -> tuple:
    """Every level 0..N in one pass of the convergent recurrence
    X_n = X_{n-1} + c_n y X_{n-2}  for X = P and X = Q, starting from
    P_{-1} = 0, Q_{-1} = 1, P_0 = c0, Q_0 = 1.

    Level n is carried as integer polynomials (p, q) over one denominator
    d_n; since Q_n(0) = 1, that denominator is q[0].  Returns the
    RationalForm of every level."""
    c0 = cf[0]
    prev, cur = ([0], [1]), ([c0.numerator], [c0.denominator])
    levels = [cur]
    for c in cf.coefficients[1:]:
        # X_n = (u x_{n-1} + v y x_{n-2}) / L  with  L = lcm(d_{n-1}, b d_{n-2})
        d1, bd2 = cur[1][0], c.denominator * prev[1][0]
        common = math.lcm(d1, bd2)
        u, v = common // d1, c.numerator * (common // bd2)
        # a factor shared by u and v is part of the content removed below;
        # dividing it out first keeps the products smaller
        g = math.gcd(u, v)
        u, v = u // g, v // g
        nxt = []
        for a, b in zip(cur, prev):
            poly = [u * x for x in a] + [0] * (len(b) + 1 - len(a))
            for i, x in enumerate(b, 1):
                poly[i] += v * x
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
            nxt.append(poly)
        # reduce by the content, which divides q[0] = L; the end coefficients
        # nearly always fix it, and the remainders of the exact division by
        # it say whether the rest share less (cheaper than one gcd over
        # every coefficient, which costs about a third more of a deep fold)
        p, q = nxt
        g = math.gcd(q[0], q[-1], p[0], p[-1])
        parts = [divmod(x, g) for x in p + q]
        content = math.gcd(g, *(r for _, r in parts))
        if content != g:
            parts = [divmod(x, content) for x in p + q]
        reduced = [x for x, _ in parts]
        prev, cur = cur, (reduced[: len(p)], reduced[len(p):])
        levels.append(cur)
    return tuple(RationalForm(tuple(p), tuple(q)) for p, q in levels)


def maclaurin_of_rational(rf: RationalForm, order: int) -> list:
    """Exact series coefficients of P/Q through the given order."""
    num = list(rf.numerator) + [Fraction(0)] * max(0, order + 1 - len(rf.numerator))
    den = list(rf.denominator) + [Fraction(0)] * max(0, order + 1 - len(rf.denominator))
    out: list = []
    for n in range(order + 1):
        acc = num[n]
        for l in range(1, n + 1):
            if l < len(den):
                acc -= den[l] * out[n - l]
        out.append(acc / den[0])
    return out


# ---------------------------------------------------------------------------
# defect detection and level selection


@dataclass(frozen=True)
class Pole:
    location: float
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class DefectReport:
    """Positive-real denominator roots found by scan plus bisection."""

    poles: tuple
    y_max: float
    panels: int

    def is_empty(self) -> bool:
        return not self.poles

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.defect-report/1",
            "y_max": self.y_max,
            "panels": self.panels,
            "poles": [
                {
                    "location": p.location,
                    "multiplicity": p.multiplicity,
                    "residual": p.residual,
                }
                for p in self.poles
            ],
        }


# sign-scan panels on (0, y_max], bisection width of a bracketed root, and
# the numerator residual below which a root counts as a common factor
_SCAN_PANELS = 4096
_ROOT_TOL = 1e-12
_CANCEL_TOL = 1e-8


def find_defects(form: RationalForm, y_max: float) -> DefectReport:
    """Scan (0, y_max] for real denominator roots of one level's form,
    on its float coefficients.

    A denominator with no negative integer coefficient (q[0] > 0 always)
    has no positive root by Descartes' rule of signs, and its float Horner
    sum on y >= 0 never falls below Q(0) = 1, so the scan is skipped.
    Otherwise a dense sign scan (_SCAN_PANELS intervals) catches every
    odd-multiplicity root wider than the panel spacing; bisection then
    refines each bracket to _ROOT_TOL.  A root where the numerator also
    vanishes (relative residual below _CANCEL_TOL) is a removable common
    factor, not a defect, and is dropped.
    """
    if y_max <= 0:
        raise ValueError("y_max must be positive")
    if min(form.q) >= 0:
        return DefectReport(poles=(), y_max=float(y_max), panels=_SCAN_PANELS)
    num_f, den_f, dden_f = form.floats
    ys = np.linspace(0.0, y_max, _SCAN_PANELS + 1)
    vals = _horner(den_f, ys)
    fa, fb = vals[:-1], vals[1:]
    # panels that end on a root, or change sign between two nonzero ends;
    # a panel starting on a zero holds either y = 0 (where Q = 1, so only
    # roundoff) or a root already recorded when it closed the previous panel
    bracketing = (fb == 0.0) | ((fa != 0.0) & ((fa < 0) != (fb < 0)))

    poles: list = []
    for idx in np.flatnonzero(bracketing):
        a, b = float(ys[idx]), float(ys[idx + 1])
        if fb[idx] == 0.0:
            root = b
        else:
            lo, hi, flo = a, b, float(fa[idx])
            while hi - lo > _ROOT_TOL:
                mid = 0.5 * (lo + hi)
                fm = _horner(den_f, mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
        if root <= 0:
            continue

        residual = abs(_horner(den_f, root)) / _abs_poly_scale(den_f, root)
        num_res = abs(_horner(num_f, root)) / _abs_poly_scale(num_f, root)
        if num_res < _CANCEL_TOL:
            continue  # common factor cancels; no actual pole
        slope = abs(_horner(dden_f, root)) / _abs_poly_scale(dden_f, root)
        multiplicity = 1 if slope > 1e-6 else 2
        poles.append(Pole(location=root, multiplicity=multiplicity, residual=residual))

    return DefectReport(poles=tuple(poles), y_max=float(y_max), panels=_SCAN_PANELS)


def _abs_poly_scale(coeffs: Sequence[float], y: float) -> float:
    total = 0.0
    power = 1.0
    for c in coeffs:
        total += abs(c) * power
        power *= abs(y)
    return total if total > 0 else 1.0


@dataclass(frozen=True)
class CandidateDiagnostics:
    """One level's defect report, and its tail value and score when the
    level is admissible."""

    level: int
    report: DefectReport
    tail_value: float | None
    score: float | None


@dataclass(frozen=True)
class SelectionResult:
    level: int
    fallback: bool
    note: str
    candidates: tuple

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.selection/1",
            "level": self.level,
            "fallback": self.fallback,
            "note": self.note,
            "candidates": [
                {
                    "level": c.level,
                    "defect_count": len(c.report.poles),
                    "pole_locations": [p.location for p in c.report.poles],
                    "tail_value": c.tail_value,
                    "score": c.score,
                }
                for c in self.candidates
            ],
        }


def select_approximant(
    cf: ContinuedFraction,
    y_max: float,
    theta_eq=None,
) -> SelectionResult:
    """Pick the working truncation level.

    Levels with defects (positive-real poles) on (0, y_max] are excluded,
    and so is a level whose exact tail Psi_N(y_max) has a zero denominator;
    the highest surviving level wins.  The even levels of a fraction
    built from sign-regular data converge while odd ones can stray, and
    the highest admissible order carries the most series information, so
    depth rather than tail scoring is the primary rule.  When a positive
    equilibrium temperature is supplied, every admissible level is also
    scored by |Psi_N(y_max) - theta_eq| (exact arithmetic; ties ranked
    even first, then deeper) and the scores go into the diagnostics; the
    note records when some shallower level lands closer than the chosen
    one.  The tail values oscillate around the asymptote, so an argmin
    over scores would pick whichever oscillation happens to land nearest
    and is not a stable selector.
    """
    diags: list = []
    admissible: list = []
    y_exact = Fraction(y_max)
    score_it = theta_eq is not None and Fraction(theta_eq) > 0
    theta_exact = Fraction(theta_eq) if score_it else None

    for level in range(cf.truncation + 1):
        form = to_rational(cf, level)
        report = find_defects(form, y_max)
        tail = score = None
        try:
            tail_exact = form.eval_exact(y_exact) if report.is_empty() else None
        except PoleHit:  # Q(y_max) = 0 at a root the scan dropped as removable or missed
            tail_exact = None
        if tail_exact is not None:
            tail = float(tail_exact)
            if score_it:
                score = float(abs(tail_exact - theta_exact))
            admissible.append((level, tail_exact))
        diags.append(CandidateDiagnostics(level, report, tail, score))

    # level 0 is the constant c0 over Q = 1, so admissible is never empty
    chosen = max(lv for lv, _ in admissible)
    note = "highest defect-free level"
    if score_it and len(admissible) > 1:
        best = min(
            admissible,
            key=lambda it: (abs(it[1] - theta_exact), it[0] % 2, -it[0]),
        )
        if best[0] != chosen:
            note += (
                f"; level {best[0]} lands nearer theta_eq="
                f"{float(theta_exact):.6g} at y={y_max} (see candidate scores)"
            )

    fallback = chosen == 0 and cf.truncation > 0
    if fallback:
        note = "every level >= 1 has defects; constant fallback"
    return SelectionResult(
        level=chosen, fallback=fallback, note=note, candidates=tuple(diags)
    )
