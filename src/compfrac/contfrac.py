"""Continued-fraction resummation of the temperature derivative series.

The Taylor series built from the initial derivatives diverges beyond a
finite radius, so the working representation is the equivalent
continued fraction

    Psi_N(y) = c0 / (1 + c1 y / (1 + c2 y / ( ... / (1 + cN y)))),

whose coefficients and rational forms P_n/Q_n come from one recursion,
the three-term convergent recurrence (_fold): cf_coefficients reads each
c_n off the levels already folded.  Everything up to evaluation is
exact: the coefficients are Fractions at the interface, computed inside
in integers over shared denominators (each level a pair of integer
polynomials over one denominator), with one content reduction per level
instead of one gcd per entry.

Each fraction is folded once and caches one RationalForm per level 0..N
(cf_coefficients hands its forms to the fraction it returns; one read
from JSON folds its stored coefficients on the first request), so
selection, defect reports and the driving temperature all read the
same fold, and so do cf_eval (float) and cf_eval_exact (exact).  A form
holds integer polynomials, a Taylor partial sum being the [N/0] form
(taylor_form); its exact values come from those integers (ratio_at,
eval_exact), its float coefficients (each rounded once from the
integers) are built on first use, and calling it is the one float
evaluation.  find_defects counts the real roots of those integers
on (0, y_max] exactly; a level is selected, or drives a solve, only when
proved finite and positive there.  Selection ranks tails in integers
too: one correctly rounded int / int per float, cross-multiplied comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .moments import DerivativeTable, _push, _quotient_coefficient, rational_rows, rationals_from_rows
from .spectra import NumericalFailure, UnsupportedParams


class PoleHit(NumericalFailure, ArithmeticError):
    """Evaluation ran into a vanishing denominator."""

    def __init__(self, y, level, message=None):
        self.y = y
        self.level = level
        super().__init__(
            message or f"denominator vanished at y={y!r} (fraction level {level})"
        )


class NonPositiveTemperature(NumericalFailure, ValueError):
    """theta(y) must stay strictly positive over the whole run."""


@dataclass(frozen=True)
class ContinuedFraction:
    """Exact coefficients c0..cN plus the termination diagnostic.

    ``pivot_break`` is the level n whose residual coefficient r_{n-1}
    vanished and the residual of level n - 1 was proved zero through the
    table's order M (see cf_coefficients): the stored coefficients end at
    that terminating fraction, which is why this is a diagnostic, not an error.
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
        return _fold(self[0], self.truncation, lambda n, q: self[n], self.source)[1]

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.continued-fraction/1",
            "source": self.source,
            "pivot_break": self.pivot_break,
            "coefficients": rational_rows(self.coefficients),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContinuedFraction":
        if data.get("schema") != "compfrac.continued-fraction/1":
            raise ValueError(f"unknown schema: {data.get('schema')!r}")
        coefficients = rationals_from_rows(data, "coefficients")
        # the recursion stops at its break, so a break is the coefficient count
        if (pivot_break := data.get("pivot_break")) not in (None, len(coefficients)):
            raise ValueError(f"pivot_break: cannot read {pivot_break!r}; expected null"
                             f" or the coefficient count, {len(coefficients)}")
        return cls(coefficients=coefficients, source=data.get("source", ""),
                   pivot_break=pivot_break)


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
    """Continued-fraction coefficients from the derivative table, exactly,
    read off the fold of its forms, which the returned fraction keeps.

    The residual R_n = Q_n S - P_n against the series S is r_n y^(n+1) + ...
    and obeys the fold's recurrence, so c_n = -r_{n-1}/r_{n-2}, where
    r_{n-1} = [y^n] Q_{n-1} S is one integer dot product of the fold's q
    with the Taylor numerators.  A vanishing r_{n-1} ends the fraction at
    level n - 1 only when the same dot vanishes at orders n+1..M too, so the
    level's series is the table's through y^M; else the Pade table has a
    block there, which the fraction cannot pass (UnsupportedParams).
    """
    series, common = table.maclaurin
    # [y^m] Q_{n-1} S = dot(m) / (q[0] common), as Q(0) = 1 and P_{n-1} has
    # degree below n; r_{-1} = theta(0) = 1, which DerivativeTable enforces
    t_last, d_last = series[0], 1

    def residual_rule(n: int, q: Sequence[int]) -> Fraction | None:
        nonlocal t_last, d_last
        dot = lambda m: sum(a * b for a, b in zip(q, series[m::-1]))
        t = dot(n)
        if t == 0:
            m = next((m for m in range(n + 1, len(series)) if dot(m)), None)
            if m is None:
                return None
            raise UnsupportedParams(
                f"{table.spectrum}, {table.params.describe()}: level {n - 1} of the continued"
                f" fraction matches the series through y^{m - 1} but not y^{m}, a Pade block"
                f" that the fraction cannot pass")
        c = Fraction(-t * d_last, t_last * q[0])
        t_last, d_last = t, q[0]
        return c

    coeffs, forms = _fold(Fraction(series[0], common), table.order, residual_rule, table.spectrum)
    cf = ContinuedFraction(coeffs, table.spectrum, len(coeffs) if len(coeffs) <= table.order else None)
    object.__setattr__(cf, "_forms", forms)
    return cf


def cf_eval(cf: ContinuedFraction, level: int, y) -> float:
    """Psi_level(y) by the level's form at float y; PoleHit where Q(y) is 0."""
    yv = float(y)
    try:
        return to_rational(cf, level)(yv)
    except ZeroDivisionError:
        raise PoleHit(yv, level) from None


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
    over their shared denominator q[0], so that Q(0) = 1.

    A form is a driving temperature as it stands: calling it is theta(y),
    ``certify`` proves it finite and positive on a run's span, and
    ``description`` (not part of equality) names it in the run manifest."""

    p: tuple
    q: tuple
    description: str = field(default="", compare=False)

    @classmethod
    def constant(cls, value) -> "RationalForm":
        """The [0/0] form n/d of float(value): (0 y + n/d) / 1.0 is the value."""
        v = float(value)
        n, d = v.as_integer_ratio()
        return cls((n,), (d,), f"constant {v:.6g}")

    @cached_property
    def floats(self) -> tuple:
        """(P, Q) as float coefficient tuples, each equal to float() of the
        exact coefficient: one correctly rounded int / int division, without
        building the Fraction (a gcd on thousands of digits)."""
        d = self.q[0]
        return tuple(x / d for x in self.p), tuple(x / d for x in self.q)

    def __call__(self, y):
        """P(y)/Q(y) by Horner's rule on ``floats``, for a float or numpy array y."""
        num, den = self.floats
        return _horner(num, y) / _horner(den, y)

    def ratio_at(self, a: int, b: int) -> tuple:
        """(n, d) with P(a/b)/Q(a/b) = n/d for b > 0; d = 0 at a pole."""
        num = _homogeneous(self.p, a, b) * b ** len(self.q)
        return num, _homogeneous(self.q, a, b) * b ** len(self.p)

    def eval_exact(self, y) -> Fraction:
        """P(y)/Q(y) at rational y, with no Fraction built until the quotient."""
        y = Fraction(y)
        num, den = self.ratio_at(*y.as_integer_ratio())
        if den == 0:
            raise PoleHit(y, None, f"denominator root at y={y}")
        return Fraction(num, den)

    def certify(self, y_end: float) -> None:
        """Prove the form finite and positive on [0, y_end] exactly:
        P(0) = p[0]/q[0] > 0, no root of q (PoleHit) and none of p
        (NonPositiveTemperature) on (0, y_end]."""
        if not self.p[0] * self.q[0] > 0:
            raise NonPositiveTemperature(f"{self.description} is {self(0.0)!r} at y = 0")
        report = find_defects(self, y_end)
        if not report.is_empty():
            (y, m), defect = (report.poles[0], "pole") if report.poles else (report.zeros[0], "zero")
            message = f"{self.description} has a {defect} of multiplicity {m} at y = {y!r}"
            raise PoleHit(y, None, message) if report.poles else NonPositiveTemperature(message)


def to_rational(cf: ContinuedFraction, level: int) -> RationalForm:
    """The fraction truncated at ``level`` as one ratio of polynomials.

    Numerator degree is floor(level/2), denominator degree ceil(level/2),
    and Q(0) = 1.  Every level is folded once, by cf_coefficients or on
    the first call (see _fold); later calls return the same cached objects.
    """
    _check_level(level, cf.truncation, "fraction holds levels")
    return cf._forms[level]


def taylor_form(table: DerivativeTable, level: int) -> RationalForm:
    """The Taylor partial sum through ``level`` as the [level/0] Pade form."""
    _check_level(level, table.order, "table holds orders")
    series, common = table.maclaurin
    return RationalForm(series[: level + 1], (common,),
                        f"Taylor partial sum, level {level} ({table.spectrum})")


def taylor_eval(table: DerivativeTable, level: int, y) -> float:
    """Taylor partial sum of theta(y) through the given order, summed exactly
    on taylor_form's integers and rounded once, by one int / int division;
    a sum past the float range rounds to an infinity of its sign (den > 0)."""
    num, den = taylor_form(table, level).ratio_at(*Fraction(y).as_integer_ratio())
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _fold(c0: Fraction, top: int, coefficient, source: str) -> tuple:
    """(c0..cN, the RationalForm of every level named by level and source)
    in one pass of  X_n = X_{n-1} + c_n y X_{n-2}  for X = P and X = Q,
    from P_{-1} = 0, Q_{-1} = 1, P_0 = c0, Q_0 = 1, up to level ``top``.
    c_n is ``coefficient(n, q)`` for the integer q of Q_{n-1}; None ends a
    terminating fraction.  Level n is carried as integer polynomials
    (p, q) over one denominator d_n, which is q[0] since Q_n(0) = 1."""
    coeffs = [c0]
    prev, cur = ([0], [1]), ([c0.numerator], [c0.denominator])
    levels = [cur]
    for n in range(1, top + 1):
        c = coefficient(n, cur[1])
        if c is None:
            break
        coeffs.append(c)
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
    return tuple(coeffs), tuple(
        RationalForm(tuple(p), tuple(q), f"continued fraction, level {n} ({source})")
        for n, (p, q) in enumerate(levels))


def maclaurin_of_rational(rf: RationalForm, order: int) -> list:
    """Exact series coefficients of P/Q = p/q through the given order, by
    the derivative routes' series division on the integers p and q."""
    p, q = (list(x) + [0] * (order + 1 - len(x)) for x in (rf.p, rf.q))
    series, den = ([], []), (q, [1] * len(q))
    for n in range(order + 1):
        _push(series, *_quotient_coefficient(series, p[n], 1, den))
    return [Fraction(n, d) for n, d in zip(*series)]


# ---------------------------------------------------------------------------
# defect detection and level selection


class Root(NamedTuple):
    """A real root on (0, y_max]: the float nearest it, and its multiplicity."""

    location: float
    multiplicity: int


@dataclass(frozen=True)
class DefectReport:
    """The roots of one level's Q (poles) and P (zeros) on (0, y_max]."""

    poles: tuple
    zeros: tuple
    y_max: float

    def is_empty(self) -> bool:
        return not (self.poles or self.zeros)

    def to_json_dict(self) -> dict:
        return {
            "schema": "compfrac.defect-report/2",
            "y_max": self.y_max,
            "poles": [r._asdict() for r in self.poles],
            "zeros": [r._asdict() for r in self.zeros],
        }


def find_defects(form: RationalForm, y_max: float) -> DefectReport:
    """Poles and zeros of one level's form on (0, y_max], counted exactly
    on its integer polynomials.

    With c0..cN all nonzero, as cf_coefficients makes them, P and Q share
    no factor (P_n Q_{n-1} - P_{n-1} Q_n = +-c0...cn y^n, Q(0) = 1), so
    every root of q is a pole (a Taylor form's q is constant).  An empty
    report with P(0) > 0 proves the form finite and positive on [0, y_max].
    """
    if y_max <= 0:
        raise ValueError("y_max must be positive")
    return DefectReport(
        poles=_roots(form.q, y_max), zeros=_roots(form.p, y_max), y_max=float(y_max)
    )


def _roots(f: Sequence[int], y_max: float) -> tuple:
    """The real roots of the integer polynomial f (lowest order first) on
    (0, y_max], in increasing order, as (float nearest, multiplicity).

    With y = y_max x, f is carried on pieces (c/2^k, (c+1)/2^k) of x in
    (0, 1) by its Bernstein coefficients there, whose sign changes are
    those of (1+t)^d f(1/(1+t)) mapped to the piece (Descartes' rule of
    signs): none proves the piece has no root, one proves one simple
    root, which is bisected to the float; other pieces are halved.  A root
    on a cut or at y_max takes its multiplicity from the coefficients that
    vanish there; a piece whose ends round to one float while it still
    counts m >= 2 sign changes is one root of multiplicity m (an upper
    bound).
    """
    if _sign_changes(f) == 0:  # Descartes: no positive root at all
        return ()
    a, b = float(y_max).as_integer_ratio()
    e, d = b.bit_length() - 1, len(f) - 1  # b = 2^e
    # g(x) = 2^(e d) f(a x / 2^e) has Bernstein coefficients on (0, 1)
    # sum_k C(j, k) g_k / C(d, k), here scaled by the lcm of the C(d, k)
    scale = math.lcm(*(math.comb(d, k) for k in range(d + 1)))
    bern = [(c * a**k << e * (d - k)) * (scale // math.comb(d, k)) for k, c in enumerate(f)]
    for i in range(d):
        for j in range(d, i, -1):
            bern[j] += bern[j - 1]
    at_end = next(i for i, x in enumerate(reversed(bern)) if x)
    roots = [Root(float(y_max), at_end)] if at_end else []
    # (k, c, bern) for the piece x in (c/2^k, (c+1)/2^k)
    pieces = [(0, 0, bern)]
    while pieces:
        k, c, bern = pieces.pop()
        count = _sign_changes(bern)
        if count == 0:
            continue
        lo, hi = a * c / (b << k), a * (c + 1) / (b << k)
        if lo == hi:
            roots.append(Root(lo, count))
        elif count == 1:
            # the first nonzero coefficient has f's sign just right of c/2^k
            rising = next(x for x in bern if x) < 0
            roots.append(Root(_bisect(f, a * c, a * (c + 1), e + k, rising), 1))
        else:
            # de Casteljau: the halves' Bernstein coefficients, scaled by 2^deg
            deg, row, left, right = len(bern) - 1, bern, [], []
            for i in range(deg + 1):
                left.append(row[0] << deg - i)
                right.insert(0, row[-1] << deg - i)
                row = [x + y for x, y in zip(row, row[1:])]
            at_cut = next(i for i, x in enumerate(right) if x)
            if at_cut:
                roots.append(Root(a * (2 * c + 1) / (b << k + 1), at_cut))
            pieces += [(k + 1, 2 * c + 1, right), (k + 1, 2 * c, left)]
    return tuple(sorted(roots))


def _bisect(f: Sequence[int], lo: int, hi: int, s: int, rising: bool) -> float:
    """The float nearest the one root of f in (lo/2^s, hi/2^s), by exact
    bisection until both ends round to the same float; ``rising`` says
    whether f < 0 between lo/2^s and the root."""
    while lo / (1 << s) != hi / (1 << s):
        lo, hi, s = 2 * lo, 2 * hi, s + 1
        mid = lo + hi >> 1
        value = 0  # 2^(s deg) f(mid/2^s) by Horner's rule, scaling by shifts
        for j, c in enumerate(reversed(f)):
            value = value * mid + (c << s * j)
        if value == 0:
            return mid / (1 << s)
        if (value < 0) == rising:
            lo = mid
        else:
            hi = mid
    return lo / (1 << s)


def _sign_changes(coeffs: Sequence[int]) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


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
            "schema": "compfrac.selection/2",
            "level": self.level,
            "fallback": self.fallback,
            "note": self.note,
            "candidates": [
                {
                    "level": c.level,
                    "defect_count": len(c.report.poles) + len(c.report.zeros),
                    "pole_locations": [p.location for p in c.report.poles],
                    "zero_locations": [z.location for z in c.report.zeros],
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

    Levels with a pole or a zero on (0, y_max] are excluded, and the
    highest surviving level wins.  The even levels of a fraction
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
    admissible: list = []  # (level, |tail - theta_eq| as numerator, denominator)
    a, b = Fraction(y_max).as_integer_ratio()
    score_it = theta_eq is not None and Fraction(theta_eq) > 0
    eq_num, eq_den = Fraction(theta_eq).as_integer_ratio() if score_it else (0, 1)

    for level in range(cf.truncation + 1):
        form = to_rational(cf, level)
        report = find_defects(form, y_max)
        tail = score = None
        if report.is_empty():
            num, den = form.ratio_at(a, b)  # den > 0: Q(0) = 1 and no root on (0, y_max]
            gap, scale = abs(num * eq_den - eq_num * den), den * eq_den
            tail, score = num / den, gap / scale if score_it else None
            admissible.append((level, gap, scale))
        diags.append(CandidateDiagnostics(level, report, tail, score))

    # level 0 is the constant c0 over Q = 1, so admissible is never empty
    chosen = admissible[-1][0]
    note = "highest defect-free level"
    if score_it and len(admissible) > 1:
        best = admissible[0]
        for level, gap, scale in admissible[1:]:
            ahead = gap * best[2] - best[1] * scale  # the sign of the score difference
            if ahead < 0 or ahead == 0 and (level % 2, -level) < (best[0] % 2, -best[0]):
                best = level, gap, scale
        if best[0] != chosen:
            note += (
                f"; level {best[0]} lands nearer theta_eq="
                f"{eq_num / eq_den:.6g} at y={y_max} (see candidate scores)"
            )

    fallback = chosen == 0 and cf.truncation > 0
    if fallback:
        note = "every level >= 1 has defects; constant fallback"
    return SelectionResult(
        level=chosen, fallback=fallback, note=note, candidates=tuple(diags)
    )
