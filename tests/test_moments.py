"""Tests for the exact derivative tables.

The main oracle integrates the closed hierarchy as truncated Taylor
series in rational arithmetic, written separately from the production
jets: moments advance jet by jet, theta is recovered as the series
quotient I_4/(4 I_3), and 1/theta is maintained by long division.  Both
production routes must reproduce those jets exactly, to order 64.
"""

import math
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compfrac.cli import write_json
from compfrac.moments import (
    DerivativeTable,
    _Jets,
    NonlinearSolveImpossible,
    NormalizationError,
    comptonization_table_from_moments,
    theta_derivatives_comptonization,
    theta_derivatives_general,
)
from compfrac.spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    DegenerateAlphaWarning,
    GaussianPulse,
    Monoenergetic,
    TransportParams,
)

DEEP = 64


def hierarchy_jets(moment, order, field=Fraction):
    """Independent oracle: Taylor jets of the closed moment hierarchy.

    ``moment(n)`` supplies I_n(0) exactly.  Stage m+1 extends every jet
    via dI_n/dy = (n-2)[(n+1) I_n - I_{n+1}/theta]; the temperature jet
    comes from the quotient I_4/(4 I_3) and its reciprocal from the
    Cauchy-product inversion.  Returns theta^(m)(0) = m! [y^m] theta.
    The arithmetic is exact unless ``field`` is float.
    """
    top = order + 5
    jets = {n: [field(moment(n))] for n in range(3, top)}
    theta = [jets[4][0] / (4 * jets[3][0])]
    assert theta[0] == 1
    inv = [field(1)]
    for m in range(order):
        for n in range(3, top - m - 1):
            flux = sum(inv[r] * jets[n + 1][m - r] for r in range(m + 1))
            jets[n].append(field(n - 2) / (m + 1) * ((n + 1) * jets[n][m] - flux))
        s = m + 1
        theta.append(
            (jets[4][s] - 4 * sum(theta[r] * jets[3][s - r] for r in range(s)))
            / (4 * jets[3][0])
        )
        inv.append(-sum(inv[r] * theta[s - r] for r in range(s)) / theta[0])
    return tuple(math.factorial(m) * theta[m] for m in range(order + 1))


def mono_moment(n):
    return Fraction(4) ** (n - 2)


def brems_moment(n):
    return math.factorial(n - 3) * Fraction(4) ** (n - 2)


MONO_FIRST = (1, 2, -12, 8, 1872, -29920, -685248)
BREMS_FIRST = (1, -6, 132, -6360, 529296, -66843744, 11811808320)

# Deep entries frozen from the oracle dry run; both routes agree exactly.
MONO_DEEP = {
    7: Fraction(40679552),
    12: Fraction(-6363575626149888),
    24: Fraction(5201540992561738999575624473829301026816),
}
BREMS_DEEP = {
    7: Fraction(-2764270531968),
    12: Fraction(44699319354882399408328704),
    24: Fraction(
        1594489575780450049011801701980093090989284905229335037453795328
    ),
}


@pytest.fixture(scope="module")
def deep_tables():
    """Closure-route tables at the deepest order the CLI accepts."""
    return {
        s.describe(): theta_derivatives_comptonization(s, DEEP)
        for s in (Monoenergetic(), Bremsstrahlung())
    }


def test_oracle_matches_table_monoenergetic(deep_tables, mono_table):
    table = deep_tables[Monoenergetic().describe()]
    assert table.values == hierarchy_jets(mono_moment, DEEP)
    assert table.values[:25] == mono_table.values


def test_oracle_matches_table_bremsstrahlung(deep_tables, brems_table):
    table = deep_tables[Bremsstrahlung().describe()]
    assert table.values == hierarchy_jets(brems_moment, DEEP)
    assert table.values[:25] == brems_table.values


def test_low_order_anchors(mono_table, brems_table):
    assert mono_table.values[:7] == tuple(Fraction(v) for v in MONO_FIRST)
    assert brems_table.values[:7] == tuple(Fraction(v) for v in BREMS_FIRST)


def test_deep_order_anchors(mono_table, brems_table):
    for m, v in MONO_DEEP.items():
        assert mono_table[m] == v
    for m, v in BREMS_DEEP.items():
        assert brems_table[m] == v


def test_float64_recursion_reproduces_exact_tables(mono_table, brems_table):
    # the same recursion in float64 rounding agrees with the exact order-24
    # tables to 2.7e-9 (pulse) and 1.3e-14 (free-free) relative, so float64
    # rounding does not move the pulse's order-24 entry from 5.20e39 to the
    # frozen listing's 9.03e40 (acceptance criterion 1)
    for moment, table in ((mono_moment, mono_table), (brems_moment, brems_table)):
        floats = hierarchy_jets(moment, 24, field=float)
        for value, exact in zip(floats, table.values, strict=True):
            assert value == pytest.approx(float(exact), rel=1e-8)


@pytest.mark.parametrize("spectrum", [Monoenergetic(), Bremsstrahlung()])
def test_route_equivalence(spectrum, deep_tables):
    direct = theta_derivatives_general(COMPTONIZATION, spectrum, DEEP)
    closed = deep_tables[spectrum.describe()]
    assert direct.values == closed.values
    assert direct.moment_indices == tuple(Fraction(n) for n in range(4, DEEP + 5))


# General-parameter tables at order 8, frozen from the symbolic route
# that differentiated I_alpha(y)/I_alpha(0) as a polynomial expression;
# keyed by (i, j, k, alpha), each entry holds the moment indices read and
# theta^(0..8)(0) for the monoenergetic and free-free spectra.
GENERAL_ANCHORS = {
    (2, 3, 3, 5): (
        range(5, 22),
        (1, 36, 2304, 196608, 20643840, 3019997184, 815566159872,
         337696109101056, 131590848742686720),
        (1, -324, 483840, -2642706432, 31818421223424, -690854410443423744,
         24281501982446249312256, -1288118817066983532879937536,
         98094631866610290146350618116096),
    ),
    (3, 2, 3, 4): (
        range(4, 13),
        (1, 20, 1040, 92480, 12335360, 2286187520, 559817953280,
         174713729269760, 67632616121630720),
        (1, 40, 6080, 2088960, 1343692800, 1445954519040, 2412243485982720,
         5898775975050608640, 20244493827445547335680),
    ),
    (2, 1, 2, 4): (
        range(4, 5),
        (1, 8, 80, 800, 8000, 80000, 800000, 8000000, 80000000),
        (1, 8, 80, 800, 8000, 80000, 800000, 8000000, 80000000),
    ),
}


@pytest.mark.parametrize("ijka", sorted(GENERAL_ANCHORS), ids=lambda p: "-".join(map(str, p)))
def test_general_route_anchors(ijka):
    indices, mono, brems = GENERAL_ANCHORS[ijka]
    params = TransportParams(*(Fraction(v) for v in ijka))
    for spectrum, expect in ((Monoenergetic(), mono), (Bremsstrahlung(), brems)):
        table = theta_derivatives_general(params, spectrum, 8)
        assert table.values == tuple(Fraction(v) for v in expect)
        assert table.moment_indices == tuple(Fraction(n) for n in indices)
        assert table.provenance == "general-route"


def test_general_route_stops_at_index_i():
    # with (i, j, k, alpha) = (3, 1, 1, 4) the lattice steps down onto
    # n = i = 3, whose moment is constant; its neighbour I_2 diverges for
    # the free-free spectrum and must never be read
    params = TransportParams(Fraction(3), Fraction(1), Fraction(1), Fraction(4))
    table = theta_derivatives_general(params, Bremsstrahlung(), 8)
    assert table.moment_indices == (Fraction(3), Fraction(4))
    assert table.values == (Fraction(1),) + (Fraction(0),) * 8


def test_table_metadata(mono_table):
    assert mono_table.order == 24
    assert mono_table.params == COMPTONIZATION
    assert mono_table[1] == 2
    assert mono_table[2] == -12


def test_json_round_trip(tmp_path, brems_table):
    path = tmp_path / "table.json"
    write_json(brems_table.to_json_dict(), path)
    loaded = DerivativeTable.load_json(path)
    assert loaded.values == brems_table.values
    assert loaded.params == brems_table.params
    assert loaded.provenance == brems_table.provenance
    assert loaded.moment_indices == brems_table.moment_indices


@pytest.mark.parametrize("edit", ["gap", "repeat", "string"])
def test_json_reader_refuses_misnumbered_rows(mono_table, edit):
    # with row 2 gone, theta'''(0) = 8 would otherwise load as theta''(0)
    data = mono_table.to_json_dict()
    rows = data["values"]
    if edit == "gap":
        rows = [r for r in rows if r["n"] != 2]
    elif edit == "repeat":
        rows = rows + rows[1:2]
    else:
        rows = [dict(r, n=str(r["n"])) if r["n"] == 2 else r for r in rows]
    data["values"] = rows
    with pytest.raises(ValueError, match=rf"row indices must be 0\.\.{len(rows) - 1} once each"):
        DerivativeTable.from_json_dict(data)


def _edited(data, where, key, value):
    """data with data[where...][key] set to value, or deleted for None."""
    target = data
    for step in where:
        target = target[step]
    if value is None:
        del target[key]
    else:
        target[key] = value
    return data


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        ((), "params", None, "params: missing"),
        ((), "values", None, "values: missing"),
        ((), "provenance", None, "provenance: missing"),
        (("params",), "alpha", "x", "params.alpha: cannot read 'x'"),
        (("values", 3), "numerator", None, r"values\[3\]\.numerator: missing"),
        (("values", 3), "numerator", "abc", r"values\[3\]\.numerator: cannot read 'abc'"),
        (("values", 3), "denominator", "0", r"values\[3\]\.denominator: cannot read '0'"),
        # truncated, these would load theta''(0) = -12 as -3 and as -6
        (("values", 2), "numerator", "-3.9", r"values\[2\]\.numerator: cannot read '-3\.9'"),
        (("values", 2), "denominator", "2.5", r"values\[2\]\.denominator: cannot read '2\.5'"),
        ((), "moment_indices", ["3", "1/0"], r"moment_indices: cannot read \['3', '1/0'\]"),
        ((), "values", [], "temperature at y=0 must be exactly 1, got no value"),
    ],
    ids=["no_params", "no_values", "no_provenance", "bad_param", "no_numerator",
         "numerator_abc", "denominator_zero", "numerator_fractional",
         "denominator_fractional", "moment_index_zero_division", "empty_values"],
)
def test_json_reader_names_the_bad_field(mono_table, where, key, value, message):
    # a malformed file is one ValueError naming its field, whatever the parse raised
    with pytest.raises(ValueError, match=message):
        DerivativeTable.from_json_dict(_edited(mono_table.to_json_dict(), where, key, value))


def test_json_reader_reads_missing_moment_indices_as_empty(mono_table):
    data = mono_table.to_json_dict()
    del data["moment_indices"]
    assert DerivativeTable.from_json_dict(data).moment_indices == ()


def test_normalization_guard():
    with pytest.raises(NormalizationError):
        DerivativeTable(
            values=(Fraction(2), Fraction(1)),
            provenance="test",
            params=COMPTONIZATION,
            spectrum="bad",
            moment_indices=(Fraction(4),),
        )


def test_missing_moments_rejected():
    moments = {n: mono_moment(n) for n in range(3, 8)}
    with pytest.raises(ValueError, match="missing"):
        comptonization_table_from_moments(moments, 6)


def test_inexact_moments_rejected():
    moments = {n: mono_moment(n) for n in range(3, 11)}
    moments[5] = float(moments[5])
    with pytest.raises(TypeError, match=r"indices \[5\]"):
        comptonization_table_from_moments(moments, 6)


def test_closure_guard_rejects_shifted_line():
    # a line at x0 = 3 has I_4/(4 I_3) = 3/4, so theta(0) cannot be 1
    with pytest.raises(NormalizationError, match="closure check.*ratio = 3/4"):
        theta_derivatives_comptonization(Monoenergetic(x0=3), 6)


def test_degenerate_moments_rejected():
    with pytest.raises(NonlinearSolveImpossible, match="I_3"):
        comptonization_table_from_moments({3: 0, 4: 0, 5: 1}, 1)
    # theta(0) = 0 leaves 1/theta without a series
    with pytest.raises(NonlinearSolveImpossible, match="theta"):
        comptonization_table_from_moments({3: 1, 4: 0, 5: 1, 6: 1}, 2)


def test_degenerate_alpha_warns():
    with pytest.warns(DegenerateAlphaWarning):
        params = TransportParams(Fraction(2), Fraction(2), Fraction(2), Fraction(2))
    # theta is identically 1 and reads no moment: free-free's I_2 diverges,
    # so a read would raise DivergentMoment
    for spectrum in (Monoenergetic(), Bremsstrahlung()):
        table = theta_derivatives_general(params, spectrum, 6)
        assert table.values == (Fraction(1),) + (Fraction(0),) * 6
        assert table.moment_indices == (params.alpha,)


def test_degenerate_alpha_warns_once():
    # alpha == i is a property of the parameters: building them warns, and
    # the route that reads them adds no second warning for the same condition
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = TransportParams(Fraction(2), Fraction(2), Fraction(2), Fraction(2))
        theta_derivatives_general(params, Monoenergetic(), 6)
    assert [w.category for w in caught] == [DegenerateAlphaWarning]


# The shipped spectra have integer moments, so the cases below feed the
# integer jets rational moments with unlike denominators and signs.

rational_moments = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(
    i3=st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=60),
    rest=st.lists(rational_moments, min_size=11, max_size=11),
    order=st.integers(min_value=0, max_value=10),
)
def test_random_rational_moments_match_oracle(i3, rest, order):
    # I_4 = 4 I_3 > 0 closes the hierarchy at theta(0) = 1; I_5... are free
    moments = {3: i3, 4: 4 * i3, **{n: v for n, v in enumerate(rest, start=5)}}
    table = comptonization_table_from_moments(
        {n: moments[n] for n in range(3, order + 5)}, order
    )
    assert table.values == hierarchy_jets(moments.__getitem__, order)


# The Fraction recurrence the integer theta and 1/theta series replaced,
# kept as a plain oracle for them.


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


def fraction_series(moments, order):
    """theta and 1/theta of the closed hierarchy as Fractions: per-entry
    moment jets, theta = I_4/(4 I_3) and 1/theta by _quotient_term."""
    top = order + 5
    jets = {n: [Fraction(moments[n])] for n in range(3, top)}
    theta, recip = [jets[4][0] / (4 * jets[3][0])], []
    for c in range(order):
        recip.append(_quotient_term(Fraction(c == 0), theta, recip))
        for n in range(3, top - c - 1):
            flux = _dot(recip, jets[n + 1][c::-1])
            jets[n].append(Fraction(n - 2, c + 1) * ((n + 1) * jets[n][c] - flux))
        theta.append(_quotient_term(jets[4][c + 1] / 4, jets[3], theta))
    return theta, recip


def build_recording_reciprocal(build):
    """(build(), the 1/theta coefficients each _Jets.advance call was fed,
    as Fractions), checking that every coefficient arrives in lowest terms
    over a positive denominator."""
    fed = []
    advance = _Jets.advance

    def recording(self, recip, c):
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in zip(*recip))
        fed.append([Fraction(n, d) for n, d in zip(*recip)])
        advance(self, recip, c)

    with mock.patch.object(_Jets, "advance", recording):
        return build(), fed


@settings(max_examples=60, deadline=None)
@given(
    i3=st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=60),
    rest=st.lists(rational_moments, min_size=13, max_size=13),
    order=st.integers(min_value=0, max_value=12),
)
def test_integer_series_match_fraction_recurrence(i3, rest, order):
    moments = {3: i3, 4: 4 * i3, **{n: v for n, v in enumerate(rest, start=5)}}
    table, fed = build_recording_reciprocal(
        lambda: comptonization_table_from_moments(
            {n: moments[n] for n in range(3, order + 5)}, order
        )
    )
    theta, recip = fraction_series(moments, order)
    assert [v / math.factorial(m) for m, v in enumerate(table.values)] == theta
    assert fed == [recip[: c + 1] for c in range(order)]


def plain_general_route(params, spectrum, order):
    """The general route as plain Fraction sums, each product and sum
    normalised as it goes: per-entry Cauchy products over the index
    lattice, with theta = I_alpha/I_alpha(0) and 1/theta by _quotient_term.
    Returns theta^(m)(0) and the coefficients of 1/theta."""
    steps, frontier = {params.alpha: 0}, [params.alpha]
    rules = {}
    for s in range(1, order + 1):
        reached = []
        for n in frontier:
            pre = n - params.i
            rules[n] = [
                t
                for t in (
                    (pre * (n + params.k - 1), n + params.k - 2, False),
                    (-pre, n + params.j - 1, True),
                )
                if t[0] != 0
            ]
            for _, m, _ in rules[n]:
                if m not in steps:
                    steps[m] = s
                    reached.append(m)
        frontier = reached
    jets = {n: [Fraction(spectrum.moment(n))] for n in steps}
    norm = jets[params.alpha][0]
    theta, recip = [Fraction(1)], []
    for c in range(order):
        recip.append(_quotient_term(Fraction(c == 0), theta, recip))
        for n, s in steps.items():
            if order - s > c:
                rate = sum(
                    coeff * (
                        sum(recip[r] * jets[m][c - r] for r in range(c + 1)) if cool
                        else jets[m][c]
                    )
                    for coeff, m, cool in rules[n]
                )
                jets[n].append(Fraction(rate, c + 1))
        theta.append(jets[params.alpha][c + 1] / norm)
    return tuple(math.factorial(m) * t for m, t in enumerate(theta)), recip


@pytest.mark.parametrize(
    "ijka",
    [(2, 2, 2, 4), (2, 3, 3, 5), (Fraction(5, 2), 2, 3, 4), (Fraction(7, 3), 3, 3, 5)],
    ids=["comptonization", "2-3-3-5", "5/2-2-3-4", "7/3-3-3-5"],
)
def test_general_route_on_rational_pulse_moments(ijka):
    # I_4 = 113/50 for this pulse; the fractional i gives the hierarchy
    # coefficients a denominator too
    pulse = GaussianPulse(mean=Fraction(3, 2), variance=Fraction(1, 100))
    assert pulse.moment(4) == Fraction(113, 50)
    params = TransportParams(*(Fraction(v) for v in ijka))
    table, fed = build_recording_reciprocal(lambda: theta_derivatives_general(params, pulse, 12))
    values, recip = plain_general_route(params, pulse, 12)
    assert table.values == values
    assert fed == [recip[: c + 1] for c in range(12)]
