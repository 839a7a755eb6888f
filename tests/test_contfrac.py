"""Tests for the continued-fraction layer.

Anchor coefficients were derived by hand from the Taylor coefficients
(quotient-difference recursion worked by hand for the first four levels);
the
deeper structure is pinned by the exact order-matching property: the
level-N convergent's Maclaurin series must reproduce the input series
through y^N, which determines the fraction uniquely.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from compfrac.contfrac import (
    CandidateDiagnostics,
    ContinuedFraction,
    PoleHit,
    RationalForm,
    SelectionResult,
    cf_coefficients,
    cf_eval,
    cf_eval_exact,
    _fold,
    _horner,
    find_defects,
    maclaurin_of_rational,
    select_approximant,
    taylor_eval,
    taylor_form,
    to_rational,
)
from compfrac.moments import DerivativeTable, theta_derivatives_comptonization
from compfrac.spectra import COMPTONIZATION, Bremsstrahlung, Monoenergetic
from compfrac.transport import TemperatureFn

MONO_HEAD = (Fraction(1), Fraction(-2), Fraction(5), Fraction(-5, 3), Fraction(269, 75))
BREMS_HEAD = (Fraction(1), Fraction(6), Fraction(5), Fraction(167, 15), Fraction(22511, 2505))


def synthetic_table(values):
    return DerivativeTable(
        values=values,
        provenance="synthetic",
        params=COMPTONIZATION,
        spectrum="synthetic",
        moment_indices=(),
    )


def test_coefficient_anchors(mono_cf, brems_cf):
    assert mono_cf.coefficients[:5] == MONO_HEAD
    assert brems_cf.coefficients[:5] == BREMS_HEAD
    assert mono_cf.truncation == 24
    assert brems_cf.truncation == 24
    assert mono_cf.pivot_break is None
    assert brems_cf.pivot_break is None


def test_low_level_forms(mono_cf):
    # Psi_1 = 1/(1 - 2y), Psi_2 = (1 + 5y)/(1 + 3y),
    # Psi_3 = (1 + 10y/3)/(1 + 4y/3 + 10y^2/3), held as integers over 3
    rf1 = to_rational(mono_cf, 1)
    assert rf1.numerator == (Fraction(1),)
    assert rf1.denominator == (Fraction(1), Fraction(-2))
    rf2 = to_rational(mono_cf, 2)
    assert rf2.numerator == (Fraction(1), Fraction(5))
    assert rf2.denominator == (Fraction(1), Fraction(3))
    rf3 = to_rational(mono_cf, 3)
    assert (rf3.p, rf3.q) == ((3, 10), (3, 4, 10))
    assert rf3.numerator == (Fraction(1), Fraction(10, 3))
    assert rf3.denominator == (Fraction(1), Fraction(4, 3), Fraction(10, 3))


@pytest.mark.parametrize("level", [0, 1, 2, 5, 10, 17, 24])
def test_order_matching_monoenergetic(mono_table, mono_cf, level):
    series = [mono_table[m] / _fact(m) for m in range(level + 1)]
    got = maclaurin_of_rational(to_rational(mono_cf, level), level)
    assert got == series


@pytest.mark.parametrize("level", [3, 8, 24])
def test_order_matching_bremsstrahlung(brems_table, brems_cf, level):
    series = [brems_table[m] / _fact(m) for m in range(level + 1)]
    got = maclaurin_of_rational(to_rational(brems_cf, level), level)
    assert got == series


def _fact(m):
    out = 1
    for k in range(2, m + 1):
        out *= k
    return out


def test_zero_pivot_at_first_level():
    # constant temperature: the fraction is just c0 and evaluation stays 1
    cf = cf_coefficients(synthetic_table((1, 0, 0, 0)))
    assert cf.coefficients == (Fraction(1),)
    assert cf.pivot_break == 1
    assert cf_eval(cf, 0, 1.3) == 1.0


def test_pivot_break_terminates_fraction():
    # theta = 1 + 2y exactly: the recursion must stop at level 3 and the
    # terminating fraction must equal the polynomial everywhere.
    cf = cf_coefficients(synthetic_table((1, 2, 0, 0, 0)))
    assert cf.coefficients == (Fraction(1), Fraction(-2), Fraction(2))
    assert cf.pivot_break == 3
    assert cf_eval_exact(cf, 2, Fraction(7, 10)) == Fraction(24, 10)
    assert cf_eval(cf, 2, 0.7) == pytest.approx(2.4, rel=1e-14)


def test_consistency_of_evaluators(mono_cf):
    y = Fraction(2)
    exact = cf_eval_exact(mono_cf, 24, y)
    assert to_rational(mono_cf, 24).eval_exact(y) == exact
    assert cf_eval(mono_cf, 24, 2.0) == pytest.approx(float(exact), rel=1e-9)


def test_low_level_evaluations(mono_cf):
    # level 0 ignores y entirely; level 1 is 1/(1 - 2y)
    assert cf_eval(mono_cf, 0, 1.7) == 1.0
    assert cf_eval(mono_cf, 1, 0.1) == pytest.approx(1.25, rel=1e-15)


def test_rational_form_matches_backward_recurrence(mono_cf, brems_cf, mono_table, brems_table):
    # the solve's driving temperature and the published cf_curves both
    # take Horner's rule on the level's float form, so they are equal; a
    # Taylor driver is Horner's rule on float() of each exact theta^(n)(0)/n!
    for cf, table in ((mono_cf, mono_table), (brems_cf, brems_table)):
        theta = TemperatureFn.from_continued_fraction(cf, 24)
        taylor = TemperatureFn.from_table(table, 24)
        coeffs = [float(table[n] / _fact(n)) for n in range(25)]
        for y in np.linspace(0.0, 2.0, 2048):
            assert theta(y) == cf_eval(cf, 24, y)
            expected = 0.0
            for c in reversed(coeffs):
                expected = expected * y + c
            assert taylor(y) == expected


def test_tail_values_frozen(mono_cf, brems_cf):
    assert float(cf_eval_exact(mono_cf, 24, Fraction(2))) == pytest.approx(
        1.3036996663311, rel=1e-10
    )
    assert float(cf_eval_exact(brems_cf, 24, Fraction(2))) == pytest.approx(
        0.15117352621808966, rel=1e-10
    )
    # neighbouring odd level brackets the limit from below
    assert float(cf_eval_exact(brems_cf, 23, Fraction(2))) == pytest.approx(
        0.14409258585312715, rel=1e-10
    )


def test_pole_hit_on_first_convergent(mono_cf):
    # Psi_1 = 1/(1 - 2y) blows up at y = 1/2
    with pytest.raises(PoleHit) as exc:
        cf_eval_exact(mono_cf, 1, Fraction(1, 2))
    assert exc.value.level == 1
    with pytest.raises(PoleHit):
        to_rational(mono_cf, 1).eval_exact(Fraction(1, 2))
    with pytest.raises(PoleHit) as exc:
        cf_eval(mono_cf, 1, 0.5)
    assert exc.value.level == 1


def test_level_bounds_checked(mono_cf, mono_table):
    with pytest.raises(ValueError):
        cf_eval(mono_cf, 25, 1.0)
    with pytest.raises(ValueError):
        to_rational(mono_cf, 25)
    with pytest.raises(ValueError):
        taylor_eval(mono_table, 25, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda cf, table: to_rational(cf, -1),
        lambda cf, table: TemperatureFn.from_continued_fraction(cf, -1),
        lambda cf, table: cf_eval(cf, -1, 1.0),
        lambda cf, table: cf_eval_exact(cf, -1, Fraction(1)),
        lambda cf, table: taylor_eval(table, -1, 1.0),
        lambda cf, table: TemperatureFn.from_table(table, -1),
        lambda cf, table: taylor_form(table, -1),
    ],
    ids=["to_rational", "theta_from_cf", "cf_eval", "cf_eval_exact",
         "taylor_eval", "theta_from_table", "taylor_form"],
)
def test_negative_level_rejected(mono_cf, mono_table, call):
    with pytest.raises(ValueError, match="asked for -1"):
        call(mono_cf, mono_table)


@pytest.fixture(
    scope="module",
    params=[Monoenergetic(), Bremsstrahlung()],
    ids=["monoenergetic", "bremsstrahlung"],
)
def deep_fraction(request):
    table = theta_derivatives_comptonization(request.param, 40)
    return table, cf_coefficients(table)


def test_shared_fold_every_level(deep_fraction):
    # one fold serves every level of a deep fraction; about 0.5 s per
    # spectrum at M = 40 (2 CPUs)
    table, cf = deep_fraction
    assert cf.truncation == 40
    series = [table[m] / _fact(m) for m in range(41)]
    for n in range(41):
        rf = to_rational(cf, n)
        assert to_rational(cf, n) is rf
        assert (len(rf.p) - 1, len(rf.q) - 1) == (n // 2, (n + 1) // 2)
        assert maclaurin_of_rational(rf, n) == series[: n + 1]
        try:
            expected = cf_eval_exact(cf, n, Fraction(2))
        except PoleHit:
            continue
        assert rf.eval_exact(2) == expected


def test_form_floats_match_exact_coefficients(deep_fraction):
    # cf_eval and the driving temperature read a form's floats, built from
    # its integers without a Fraction; they must be float() of its exact
    # coefficients.  The selection's reports are the ones find_defects gives
    table, cf = deep_fraction
    selection = select_approximant(cf, 2.0)
    for n in range(cf.truncation + 1):
        rf = to_rational(cf, n)
        num, den = rf.floats
        assert num == tuple(float(c) for c in rf.numerator)
        assert den == tuple(float(c) for c in rf.denominator)
        assert selection.candidates[n].report == find_defects(rf, 2.0)
    # a Taylor driver is the [n/0] form: its floats are each exact
    # theta^(n)(0)/n! rounded once, not float(theta^(n)(0)) / n!
    series = [table[m] / _fact(m) for m in range(table.order + 1)]
    for n in range(table.order + 1):
        rf = TemperatureFn.from_table(table, n).fn
        assert (rf.numerator, rf.denominator) == (tuple(series[: n + 1]), (1,))
        assert rf.floats == (tuple(float(c) for c in series[: n + 1]), (1.0,))


def test_taylor_eval_exact_partial_sum(mono_table):
    assert taylor_eval(mono_table, 2, 1.0) == -3.0
    assert taylor_eval(mono_table, 0, 5.0) == 1.0
    assert taylor_eval(mono_table, 2, 0.0) == 1.0
    # 1 + 2(0.1) - 6(0.1)^2, summed exactly then rounded once
    assert taylor_eval(mono_table, 2, 0.1) == 1.14


def test_taylor_series_diverges_past_convergence_radius(mono_table):
    assert abs(taylor_eval(mono_table, 24, 0.5)) > 1e2


def test_defect_scan_linear_denominator(mono_cf):
    # level 1 has Q = 1 - 2y, a single simple root at 1/2
    report = find_defects(to_rational(mono_cf, 1), 2.0)
    assert len(report.poles) == 1
    assert report.poles[0].location == pytest.approx(0.5, abs=1e-10)
    assert report.poles[0].multiplicity == 1


def test_defect_scan_finds_odd_level_pole(mono_cf):
    report = find_defects(to_rational(mono_cf, 5), 2.0)
    assert len(report.poles) == 1
    pole = report.poles[0]
    assert pole.location == pytest.approx(1.4878348285797074, abs=1e-6)
    assert pole.multiplicity == 1
    assert report.y_max == 2.0
    assert not report.is_empty()


@pytest.fixture(scope="module")
def shipped_fractions_64():
    return {
        name: cf_coefficients(theta_derivatives_comptonization(spectrum, 64))
        for name, spectrum in (("pulse", Monoenergetic()), ("freefree", Bremsstrahlung()))
    }


def test_descartes_certificate_skips_only_positive_denominators(
    shipped_fractions_64, mono_cf
):
    # a level whose integer q has no negative coefficient has no pole on
    # y > 0 (Descartes), and its float Q, which cf_eval reads, must be
    # strictly positive there too
    ys = np.linspace(0.0, 2.0, 4097)
    skipped = {}
    for name, cf in shipped_fractions_64.items():
        skipped[name] = []
        for n in range(cf.truncation + 1):
            form = to_rational(cf, n)
            if min(form.q) >= 0:
                skipped[name].append(n)
                assert (_horner(form.floats[1], ys) > 0).all()
                assert find_defects(form, 2.0).is_empty()
    # every free-free coefficient is positive; 19 of the 65 pulse levels
    # have no sign change in q, and 17 of 25 at M = 24
    assert skipped["freefree"] == list(range(65))
    assert len(skipped["pulse"]) == 19
    assert sum(min(to_rational(mono_cf, n).q) >= 0 for n in range(25)) == 17
    for level in (1, 5):
        assert min(to_rational(mono_cf, level).q) < 0
        assert len(find_defects(to_rational(mono_cf, level), 2.0).poles) == 1


def test_deep_pulse_defects_exact(shipped_fractions_64):
    # the poles of levels 37, 48, 52-54, 57, 58 and 62 each lie within 3e-8
    # relative of a zero of P, yet P and Q share no factor, so each is a
    # pole; levels 31, 35 and 49 have a zero and no pole, where theta < 0
    cf = shipped_fractions_64["pulse"]
    reports = [find_defects(to_rational(cf, n), 2.0) for n in range(65)]
    with_poles = [n for n, r in enumerate(reports) if r.poles]
    with_zeros = [n for n, r in enumerate(reports) if r.zeros]
    assert with_poles == [1, 5, 29, 33, 37, 40, 44, 48, 52, 53, 54, 56, 57, 58, 62]
    assert with_zeros == [31, 35, 37, 40, 44, 48, 49, 52, 53, 54, 56, 57, 58, 62]
    assert len(reports[54].poles) == 2
    assert 0.11 < reports[48].poles[0].location < 0.1101
    # each root is simple and rounds to its reported float: the exact
    # polynomial changes sign between the midpoints to the neighbouring floats
    for n, report in enumerate(reports):
        form = to_rational(cf, n)
        for poly, roots in ((form.q, report.poles), (form.p, report.zeros)):
            for location, multiplicity in roots:
                assert multiplicity == 1
                x = Fraction(location)
                below = (x + Fraction(math.nextafter(location, 0))) / 2
                above = (x + Fraction(math.nextafter(location, 3))) / 2
                values = [sum(c * y**k for k, c in enumerate(poly)) for y in (below, above)]
                assert values[0] * values[1] < 0


def _times(poly, factor):
    out = [0] * (len(poly) + len(factor) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


@settings(max_examples=60, deadline=None)
@given(
    top=st.integers(min_value=1, max_value=40),
    inside=st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda r: 0 < r < 1),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=3,
        unique_by=lambda root: root[0],
    ),
    at_end=st.integers(min_value=0, max_value=2),
    positive=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=2),
)
def test_root_count_matches_planted_roots(top, inside, at_end, positive):
    # (b y - a)^m at a/b inside (0, y_max) and at y_max = top/8, times
    # factors with positive coefficients (no root on y > 0) and roots just
    # outside: at 0, at -2^-40 and at y_max + 2^-43
    y_max = Fraction(top, 8)
    poly = [0, 1]
    for factor in ([1, 2**40], [-(top * 2**40 + 1), 8 * 2**40]):
        poly = _times(poly, factor)
    for s, t in positive:
        poly = _times(poly, [t, s, 1])
    expected = []
    for r, m in inside + [(Fraction(1), at_end)]:
        root = r * y_max
        for _ in range(m):
            poly = _times(poly, [-root.numerator, root.denominator])
        if m:
            expected.append((float(root), m))
    for sign in (1, -1):
        report = find_defects(RationalForm(p=tuple(sign * c for c in poly), q=(1,)), float(y_max))
        assert report.poles == ()
        assert report.zeros == tuple(sorted(expected))


@pytest.mark.parametrize("level", [2, 4, 12, 24])
def test_even_levels_clean_monoenergetic(mono_cf, level):
    assert find_defects(to_rational(mono_cf, level), 2.0).is_empty()


def test_bremsstrahlung_even_levels_contract(brems_cf):
    # every coefficient c_0..c_24 is positive, and successive even-level
    # gaps shrink: |psi24 - psi22| <= |psi22 - psi20| at y = 0.1, 0.2, ..., 2
    assert len(brems_cf.coefficients) == 25
    assert all(c > 0 for c in brems_cf.coefficients)
    for k in range(1, 21):
        y = Fraction(k, 10)
        p20 = cf_eval_exact(brems_cf, 20, y)
        p22 = cf_eval_exact(brems_cf, 22, y)
        p24 = cf_eval_exact(brems_cf, 24, y)
        assert abs(p24 - p22) <= abs(p22 - p20)


def test_selection_picks_deepest_clean_level(mono_selection, brems_selection):
    assert mono_selection.level == 24
    assert not mono_selection.fallback
    assert brems_selection.level == 24
    assert not brems_selection.fallback
    assert mono_selection.note.startswith("highest defect-free level")
    # the tail scores oscillate; the note must flag the shallower level
    # that happens to land nearest the equilibrium value
    assert "level 12 lands nearer" in mono_selection.note
    by_level = {c.level: c for c in mono_selection.candidates}
    assert len(by_level) == 25
    assert len(by_level[5].report.poles) == 1
    assert by_level[24].report.is_empty()
    assert by_level[24].score is not None


def test_even_multiplicity_pole_found():
    # level 3 has Q = (1 - y/2)^2, a double pole that no sign scan brackets
    cf = ContinuedFraction(coefficients=(1, Fraction(1, 2), -2, Fraction(1, 2)))
    sel = select_approximant(cf, 3.0)
    assert sel.candidates[3].report.poles == ((2.0, 2),)
    assert sel.candidates[2].report.poles == ((2 / 3, 1),)
    assert sel.level == 1


def test_selection_of_constant_fraction():
    cf = ContinuedFraction(coefficients=(Fraction(1),))
    sel = select_approximant(cf, 2.0)
    assert sel.level == 0
    assert not sel.fallback


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        ContinuedFraction(coefficients=())


def test_json_round_trip(brems_cf):
    data = brems_cf.to_json_dict()
    assert data["schema"] == "compfrac.continued-fraction/1"
    back = ContinuedFraction.from_json_dict(data)
    assert back.coefficients == brems_cf.coefficients
    assert back.pivot_break == brems_cf.pivot_break
    with pytest.raises(ValueError):
        ContinuedFraction.from_json_dict({"schema": "nope"})


def test_json_reader_refuses_misnumbered_rows(brems_cf):
    data = brems_cf.to_json_dict()
    data["coefficients"] = [r for r in data["coefficients"] if r["n"] != 2]
    with pytest.raises(ValueError, match=r"row indices must be 0\.\.23 once each"):
        ContinuedFraction.from_json_dict(data)


def test_json_reader_names_the_bad_field(brems_cf):
    # a zero denominator and a missing field are one ValueError naming the field
    data = brems_cf.to_json_dict()
    data["coefficients"][2]["denominator"] = "0"
    with pytest.raises(ValueError, match=r"coefficients\[2\]\.denominator: cannot read '0'"):
        ContinuedFraction.from_json_dict(data)
    del data["coefficients"]
    with pytest.raises(ValueError, match="coefficients: missing"):
        ContinuedFraction.from_json_dict(data)


def test_selection_json_shape(mono_selection):
    data = mono_selection.to_json_dict()
    assert data["schema"] == "compfrac.selection/2"
    assert data["level"] == 24
    assert len(data["candidates"]) == 25
    assert {"level", "defect_count", "pole_locations", "zero_locations", "tail_value",
            "score"} <= set(
        data["candidates"][0]
    )


series_values = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(tail=st.lists(series_values, min_size=1, max_size=6))
def test_order_matching_random_series(tail):
    coeffs = [Fraction(1)] + tail
    table = synthetic_table([c * _fact(m) for m, c in enumerate(coeffs)])
    cf = cf_coefficients(table)
    assume(cf.pivot_break is None)
    level = cf.truncation
    got = maclaurin_of_rational(to_rational(cf, level), level)
    assert got == coeffs[: level + 1]


@settings(max_examples=40, deadline=None)
@given(tail=st.lists(series_values, min_size=2, max_size=8))
def test_coefficients_prefix_stable(tail):
    # extending the series never changes the coefficients already built
    coeffs = [Fraction(1)] + tail
    values = [c * _fact(m) for m, c in enumerate(coeffs)]
    full = cf_coefficients(synthetic_table(values))
    short = cf_coefficients(synthetic_table(values[:-1]))
    assume(full.pivot_break is None and short.pivot_break is None)
    assert full.coefficients[: len(short.coefficients)] == short.coefficients


def plain_fold(coefficients):
    """Every level's (P, Q) by the convergent recurrence in plain Fraction
    polynomials, trailing zeros trimmed; Q_n(0) = 1 throughout."""
    prev, cur = ([Fraction(0)], [Fraction(1)]), ([coefficients[0]], [Fraction(1)])
    levels = [cur]
    for c in coefficients[1:]:
        nxt = []
        for a, b in zip(cur, prev):
            poly = a + [Fraction(0)] * (len(b) + 1 - len(a))
            for i, v in enumerate(b, 1):
                poly[i] += c * v
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
            nxt.append(poly)
        prev, cur = cur, tuple(nxt)
        levels.append(cur)
    return [(tuple(p), tuple(q)) for p, q in levels]


def unscaled_fold(cf):
    """The integer fold without the gcd(u, v) division of the multipliers:
    each level is the full product reduced by its content afterwards."""
    c0 = cf[0]
    prev, cur = ([0], [1]), ([c0.numerator], [c0.denominator])
    levels = [cur]
    for c in cf.coefficients[1:]:
        d1, bd2 = cur[1][0], c.denominator * prev[1][0]
        common = math.lcm(d1, bd2)
        u, v = common // d1, c.numerator * (common // bd2)
        nxt = []
        for a, b in zip(cur, prev):
            poly = [u * x for x in a] + [0] * (len(b) + 1 - len(a))
            for i, x in enumerate(b, 1):
                poly[i] += v * x
            while len(poly) > 1 and poly[-1] == 0:
                poly.pop()
            nxt.append(poly)
        content = math.gcd(*nxt[0], *nxt[1])
        prev, cur = cur, tuple([x // content for x in side] for side in nxt)
        levels.append(cur)
    return tuple(levels)


def plain_maclaurin_of_rational(rf: RationalForm, order: int) -> list:
    """The series of P/Q by the plain Fraction recurrence
    [y^n] P/Q = (P_n - sum_{l=1..n} Q_l [y^(n-l)] P/Q) / Q_0."""
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


form_coefficients = st.integers(min_value=-(10**12), max_value=10**12)


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(form_coefficients, min_size=1, max_size=9),
    q0=st.integers(min_value=1, max_value=10**12),
    q_rest=st.lists(form_coefficients, max_size=8),
    order=st.integers(min_value=0, max_value=12),
)
def test_series_division_matches_fraction_recurrence(p, q0, q_rest, order):
    rf = RationalForm(tuple(p), (q0, *q_rest))
    assert maclaurin_of_rational(rf, order) == plain_maclaurin_of_rational(rf, order)


def test_series_division_on_shipped_level_64_forms(shipped_fractions_64):
    for cf in shipped_fractions_64.values():
        rf = to_rational(cf, 64)
        assert maclaurin_of_rational(rf, 64) == plain_maclaurin_of_rational(rf, 64)


@pytest.mark.parametrize("spectrum", [Monoenergetic(), Bremsstrahlung()],
                         ids=["monoenergetic", "bremsstrahlung"])
def test_fold_matches_unscaled_fold_to_order_64(spectrum):
    # dividing u and v by their gcd leaves every level's primitive integer
    # form, sign included, as the unscaled products give it
    cf = cf_coefficients(theta_derivatives_comptonization(spectrum, 64))
    assert cf.truncation == 64
    assert [(list(f.p), list(f.q)) for f in _fold(cf)] == [tuple(lv) for lv in unscaled_fold(cf)]


fold_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
)


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(fold_coefficients, min_size=1, max_size=14))
def test_fold_matches_plain_recurrence(coeffs):
    # zero coefficients leave trailing zeros to trim, and unlike
    # denominators exercise the per-level common denominator
    cf = ContinuedFraction(coefficients=tuple(coeffs))
    got = [(to_rational(cf, n).numerator, to_rational(cf, n).denominator)
           for n in range(len(coeffs))]
    assert got == plain_fold(tuple(coeffs))


@settings(max_examples=80, deadline=None)
@given(
    y=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    level=st.integers(min_value=0, max_value=24),
)
def test_taylor_eval_rounds_exact_sum_once(mono_table, y, level):
    series = [mono_table[n] / _fact(n) for n in range(level + 1)]
    exact = sum(c * Fraction(y) ** n for n, c in enumerate(series))
    assert taylor_eval(mono_table, level, y) == float(exact)


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(fold_coefficients, min_size=1, max_size=8),
    y_max=st.floats(min_value=0.01, max_value=10.0),
)
@example(coeffs=[Fraction(0), Fraction(-1)], y_max=1.0)
def test_level_zero_always_admissible(coeffs, y_max):
    # level 0 is c0 over Q = 1, which has no root, so every selection has
    # an admissible level whatever the deeper coefficients are
    cf = ContinuedFraction(coefficients=tuple(coeffs))
    level0 = select_approximant(cf, y_max).candidates[0]
    assert level0.report.is_empty()
    assert level0.tail_value == float(coeffs[0])


@pytest.mark.parametrize(
    "coeffs, y_max",
    [((0, -1), 1.0), ((1, Fraction(-16, 49)), 3.0625), ((1, 0, Fraction(-1, 2)), 2.0)],
    ids=["zero_numerator", "endpoint_root_missed", "common_factor"],
)
def test_undefined_tail_not_admissible(coeffs, y_max):
    # Q(y_max) = 0 exactly at the deepest level, where P may vanish too (the
    # last case, with a zero c1) or be identically zero (the first): the
    # count reports that pole, so the level has no tail value, and the one
    # above it is chosen
    sel = select_approximant(ContinuedFraction(coefficients=coeffs), y_max)
    assert sel.candidates[-1].tail_value is None
    assert sel.level == len(coeffs) - 2


def fraction_selection(cf, y_max, theta_eq=None):
    """select_approximant with every tail and score a Fraction, ranked by
    min over Fraction keys: the reference for the integer ranking."""
    diags: list = []
    admissible: list = []
    y_exact = Fraction(y_max)
    score_it = theta_eq is not None and Fraction(theta_eq) > 0
    theta_exact = Fraction(theta_eq) if score_it else None

    for level in range(cf.truncation + 1):
        form = to_rational(cf, level)
        report = find_defects(form, y_max)
        tail = score = None
        if report.is_empty():
            tail_exact = form.eval_exact(y_exact)
            tail = float(tail_exact)
            if score_it:
                score = float(abs(tail_exact - theta_exact))
            admissible.append((level, tail_exact))
        diags.append(CandidateDiagnostics(level, report, tail, score))

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


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(fold_coefficients, min_size=1, max_size=8),
    y_max=st.floats(min_value=0.01, max_value=10.0),
    theta_eq=st.one_of(
        st.none(),
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(1, 50), max_value=20, max_denominator=50),
    ),
)
@example(coeffs=[Fraction(1), Fraction(3), Fraction(-1, 2)], y_max=2.0, theta_eq=Fraction(1, 2))
def test_integer_ranking_matches_fraction_selection(coeffs, y_max, theta_eq):
    # negative tails and scores measured across zero included
    cf = ContinuedFraction(coefficients=tuple(coeffs))
    got = select_approximant(cf, y_max, theta_eq=theta_eq)
    assert got == fraction_selection(cf, y_max, theta_eq)


@pytest.mark.parametrize(
    "coeffs, theta_eq, best",
    [
        # tails 1 and 1/2 at y = 1 lie 1/4 either side of 3/4: the even
        # level wins the tie though the odd one is deeper
        ((1, 1), Fraction(3, 4), 0),
        # tails 1, 1/2, 2/3, 3/5: levels 0 and 2 both lie 1/6 from 5/6, and
        # the deeper even level wins
        ((1, 1, 1, 1), Fraction(5, 6), 2),
    ],
    ids=["odd_against_even", "two_even"],
)
def test_equal_distance_ties_ranked_even_then_deeper(coeffs, theta_eq, best):
    cf = ContinuedFraction(coefficients=coeffs)
    sel = select_approximant(cf, 1.0, theta_eq=theta_eq)
    scores = [c.score for c in sel.candidates]
    assert scores.count(min(scores)) == 2
    assert sel.level == len(coeffs) - 1
    assert f"level {best} lands nearer theta_eq" in sel.note
    assert sel == fraction_selection(cf, 1.0, theta_eq)


@pytest.mark.parametrize("order", [24, 30, 64])
def test_selection_json_matches_fraction_selection(order, shipped_fractions_64):
    for spectrum, theta_eq in ((Monoenergetic(), Fraction(4, 3)), (Bremsstrahlung(), Fraction(0))):
        name = "pulse" if isinstance(spectrum, Monoenergetic) else "freefree"
        if order == 64:
            cf = shipped_fractions_64[name]
        else:
            cf = cf_coefficients(theta_derivatives_comptonization(spectrum, order))
        got = select_approximant(cf, 2.0, theta_eq=theta_eq).to_json_dict()
        assert got == fraction_selection(cf, 2.0, theta_eq).to_json_dict()
