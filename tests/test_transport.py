"""Tests for the finite-volume transport solver.

The operator oracle is analytic: for F = x^3 exp(-x/2) at unit
temperature the flux divergence is exp(-x/2)(4x^3 + 2x^4 - x^5/4),
obtained by differentiating the flux x^4 exp(-x/2)(1 + x/2) by hand.
The discrete operator must approach it at second order in the cell
width.  The detailed-balance structure of the interface weights makes
the sampled equilibrium profile an exact stationary state, which is
tested directly.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv as public_dgtsv

from compfrac import transport
from compfrac.cli import write_run_manifest, write_snapshot_csv
from compfrac.contfrac import PoleHit, RationalForm, cf_coefficients, taylor_form, to_rational
from compfrac.moments import theta_derivatives_comptonization
from compfrac.spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    GaussianPulse,
    Monoenergetic,
    TransportParams,
    UnsupportedParams,
    equilibrium_spectrum,
)
from compfrac.transport import (
    Grid,
    NonFiniteState,
    NonPositiveTemperature,
    PositivityViolation,
    SnapshotMissing,
    StepSizeUnderflow,
    SELF_CONSISTENT,
    _lambda_minus,
    _Operator,
    grid_moment,
    initial_cell_values,
    solve_transport,
)
from compfrac.verify import output_temperature

from conftest import RUN_SNAPSHOTS


def apply_operator(grid, F, theta=1.0):
    op = _Operator(grid, COMPTONIZATION)
    return op.apply(op.assemble(theta), F)


# ---------------------------------------------------------------------------
# grid


def test_log_grid_shape():
    grid = Grid.log_spaced(cells=100, x_min=1e-2, x_max=10.0, y_end=1.5, snapshots=4)
    assert grid.cells == 100
    assert grid.edges[0] == pytest.approx(1e-2)
    assert grid.edges[-1] == pytest.approx(10.0)
    assert np.allclose(
        grid.centers, np.sqrt(np.asarray(grid.edges[:-1]) * np.asarray(grid.edges[1:]))
    )
    assert np.sum(grid.widths) == pytest.approx(10.0 - 1e-2)
    assert grid.snapshot_times == tuple(np.linspace(0.0, 1.5, 4))


def test_grid_arrays_cached_read_only():
    grid = Grid.log_spaced(cells=50, snapshots=3)
    e = np.asarray(grid.edges)
    assert grid.centers is grid.centers
    assert grid.widths is grid.widths
    assert np.array_equal(grid.centers, np.sqrt(e[:-1] * e[1:]))
    assert np.array_equal(grid.widths, e[1:] - e[:-1])
    # one array per exponent, keyed by the float that x ** e reads
    cube = grid.center_power(3)
    assert grid.center_power(Fraction(3)) is cube and grid.center_power(3.0) is cube
    assert np.array_equal(cube, grid.centers ** 3.0)
    two_thirds = grid.center_power(Fraction(2, 3))
    assert grid.center_power(float(Fraction(2, 3))) is two_thirds
    assert np.array_equal(two_thirds, grid.centers ** float(Fraction(2, 3)))
    # 3.0 - float(7/3) rounds to the float below 2/3: a different exponent
    assert grid.center_power(3.0 - float(Fraction(7, 3))) is not two_thirds
    for arr in (grid.centers, grid.widths, cube, two_thirds):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_equal_grids_compare_and_hash_equal():
    a = Grid.log_spaced(cells=50, snapshots=3)
    b = Grid(edges=list(a.edges), y_end=a.y_end, snapshot_times=a.snapshot_times)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Grid.log_spaced(cells=51, snapshots=3)
    # the cached arrays are not fields: building them changes neither
    a.center_power(3)
    a.center_power(Fraction(7, 3))
    assert a == b and hash(a) == hash(b)
    assert a.to_json_dict() == b.to_json_dict()


def test_grid_snapshot_sequence_is_sorted():
    grid = Grid.log_spaced(snapshots=(2.0, 0.5, 1.0))
    assert grid.snapshot_times == (0.5, 1.0, 2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(edges=(1.0, 2.0), y_end=1.0, snapshot_times=()),
        dict(edges=(0.0, 1.0, 2.0), y_end=1.0, snapshot_times=()),
        dict(edges=(1.0, 1.0, 2.0), y_end=1.0, snapshot_times=()),
        dict(edges=(1.0, 2.0, 3.0), y_end=-1.0, snapshot_times=()),
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(0.2, 0.1)),
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(0.0, 0.5, 0.5, 1.0)),
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(1.5,)),
        # no roundoff slack past y_end, and a NaN fails every comparison
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(0.0, 1.0 + 5e-13)),
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(math.nan,)),
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(0.0, math.nan, 1.0)),
        dict(edges=(1.0, math.nan, 3.0), y_end=1.0, snapshot_times=()),
        dict(edges=(math.nan, 2.0, 3.0), y_end=1.0, snapshot_times=()),
        dict(edges=(1.0, 2.0, 3.0), y_end=math.nan, snapshot_times=()),
        dict(edges=(1.0, 2.0, 3.0), y_end=math.inf, snapshot_times=()),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


# ---------------------------------------------------------------------------
# interface weights and the discrete operator


@settings(max_examples=80, deadline=None)
@given(w=st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
def test_lambda_identity(w):
    arr = np.asarray([w])
    minus = float(_lambda_minus(arr)[0])
    plus = float(_lambda_minus(-arr)[0])
    # lambda(-w) = lambda(w) + w on the whole line
    assert plus == pytest.approx(minus + w, rel=1e-10, abs=1e-12)


def test_lambda_limits():
    assert float(_lambda_minus(np.asarray([0.0]))[0]) == 1.0
    assert float(_lambda_minus(np.asarray([600.0]))[0]) == pytest.approx(0.0, abs=1e-250)
    assert float(_lambda_minus(np.asarray([-600.0]))[0]) == 600.0


def assemble_from_scratch(grid, theta_val, params):
    """Bands recomputed from the grid edges alone, geometry included."""
    x = np.sqrt(np.asarray(grid.edges[:-1]) * np.asarray(grid.edges[1:]))
    dx = np.asarray(grid.edges[1:]) - np.asarray(grid.edges[:-1])
    lo, hi = x[:-1], x[1:]
    p, i = float(params.p), float(params.i)
    logratio = np.log(hi / lo)
    if p == 0.0:
        w = logratio / theta_val - i * logratio
    else:
        w = (hi ** p - lo ** p) / (p * theta_val) - i * logratio
    # w / (e^w - 1) with every range masked separately
    lam_m = np.empty_like(w)
    tiny, big, neg = np.abs(w) < 1e-8, w > 500.0, w < -500.0
    rest = ~(tiny | big | neg)
    lam_m[tiny] = 1.0 - w[tiny] / 2.0 + w[tiny] * w[tiny] / 12.0
    lam_m[big] = w[big] * np.exp(-w[big])
    lam_m[neg] = -w[neg]
    lam_m[rest] = w[rest] / np.expm1(w[rest])
    lam_p = lam_m + w
    g = np.asarray(grid.edges[1:-1]) ** float(params.k) / (hi - lo)
    upper = np.zeros(grid.cells)
    lower = np.zeros(grid.cells)
    diag = np.zeros(grid.cells)
    upper[1:] = g * lam_p / dx[:-1]
    lower[:-1] = g * lam_m / dx[1:]
    diag[:-1] -= g * lam_m / dx[:-1]
    diag[1:] -= g * lam_p / dx[1:]
    return lower, diag, upper


@pytest.mark.parametrize(
    "params",
    [
        COMPTONIZATION,  # p = 1
        TransportParams(2, 1, 2, 4),  # p = 0
        TransportParams(Fraction(5, 2), 2, Fraction(5, 2), Fraction(9, 2)),  # p = 1/2
    ],
)
def test_cached_assembly_matches_from_scratch(params):
    grid = Grid.log_spaced(cells=400, snapshots=())
    op = _Operator(grid, params)
    # theta = 2e-5 drives w past 500 on some interfaces (on all for p = 0),
    # so the masked branch of the interface weights is compared as well as
    # the unmasked one the other temperatures take
    for theta in (2e-5, 0.01, 0.37, 1.0, 4.0 / 3.0, 25.0):
        lower, diag, upper = op.assemble(theta)
        want_lower, want_diag, want_upper = assemble_from_scratch(grid, theta, params)
        # the off-diagonals hold one entry per interface; the from-scratch
        # bands pad them to a cell each with a zero
        assert want_lower[-1] == 0.0 and want_upper[0] == 0.0
        assert np.array_equal(lower, want_lower[:-1])
        assert np.array_equal(diag, want_diag)
        assert np.array_equal(upper, want_upper[1:])


def test_step_matches_banded_solve():
    grid = Grid.log_spaced(cells=400, snapshots=())
    F, _ = initial_cell_values(Monoenergetic(), grid, COMPTONIZATION)
    F.flags.writeable = False
    op = _Operator(grid, COMPTONIZATION)
    for theta in (0.5, 1.0, 1.6):
        lower, diag, upper = bands = op.assemble(theta)
        for dy in (1e-7, 1e-4, 0.05):
            ab = np.zeros((3, grid.cells))
            ab[0, 1:] = -dy * upper
            ab[1, :] = 1.0 - dy * diag
            ab[2, :-1] = -dy * lower
            want = solve_banded((1, 1), ab, F)
            # the bands of one assembly serve a second solve unchanged
            kept = [band.copy() for band in bands]
            assert np.array_equal(op.solve(bands, dy, F), want)
            for band, copy in zip(bands, kept):
                assert np.array_equal(band, copy)
            assert np.array_equal(op.solve(bands, dy, F), want)


def _stage_systems(grid, params=COMPTONIZATION):
    """Stage matrices and right-hand sides of the kind the stepper solves."""
    op = _Operator(grid, params)
    F, _ = initial_cell_values(Monoenergetic(), grid, params)
    for theta in (0.5, 1.0, 1.6):
        bands = op.assemble(theta)
        for dy in (1e-7, 1e-4, 0.05):
            yield bands, dy, F


@pytest.mark.parametrize(
    "grid",
    [
        Grid.log_spaced(cells=400, snapshots=()),  # the pulse scenario's grid
        Grid.log_spaced(cells=600, x_min=1e-5, snapshots=()),  # free-free's
    ],
    ids=["pulse_grid", "freefree_grid"],
)
def test_operator_falls_back_to_scipy_dgtsv(monkeypatch, grid):
    numpy_op = _Operator(grid, COMPTONIZATION)
    want = []
    for bands, dy, F in _stage_systems(grid):
        want.append(numpy_op.solve(bands, dy, F))
    # a numpy without the symbol (MKL, a system LAPACK) solves with scipy's
    monkeypatch.setattr(transport, "_NUMPY_DGTSV", "no_such_symbol_")
    assert transport._find_numpy_dgtsv() is None
    monkeypatch.setattr(transport, "_numpy_gtsv", None)
    monkeypatch.setattr(transport, "dgtsv", public_dgtsv)
    op = _Operator(grid, COMPTONIZATION)
    for (bands, dy, F), solve_want in zip(_stage_systems(grid), want):
        assert np.array_equal(op.solve(bands, dy, F), solve_want)
        # the bands are left intact for a second solve
        assert np.array_equal(op.solve(bands, dy, F), solve_want)
    assert op.linear_solves == 2 * len(want)
    zero = np.zeros(grid.cells - 1)
    with pytest.raises(NonFiniteState):
        op.solve((zero, np.ones(grid.cells), zero), 1.0, np.ones(grid.cells))


def test_singular_step_matrix_rejected():
    grid = Grid.log_spaced(cells=8, snapshots=())
    op = _Operator(grid, COMPTONIZATION)
    zero = np.zeros(grid.cells - 1)
    # 1 - dy * diag vanishes on every row
    with pytest.raises(NonFiniteState):
        op.solve((zero, np.ones(grid.cells), zero), 1.0, np.ones(grid.cells))


def test_operator_second_order_convergence():
    errs = []
    for cells in (200, 400, 800):
        grid = Grid.log_spaced(cells=cells, x_min=1e-3, x_max=50.0, snapshots=())
        x = grid.centers
        F = x**3 * np.exp(-x / 2.0)
        AF = apply_operator(grid, F)
        exact = np.exp(-x / 2.0) * (4.0 * x**3 + 2.0 * x**4 - 0.25 * x**5)
        errs.append(np.max(np.abs(AF - exact)) / np.max(np.abs(exact)))
    assert errs[0] == pytest.approx(7.4107e-3, rel=1e-3)
    assert errs[1] == pytest.approx(1.8612e-3, rel=1e-3)
    assert errs[2] == pytest.approx(4.6581e-4, rel=1e-3)
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_drift_diffusion_rates():
    # a narrow pulse at x moves at d<x>/dy = (i + k) x^(k-1) - x^j/theta and
    # spreads at d sigma^2/dy = 2 x^k; Comptonization has i = k = 2, j = 2
    assert (COMPTONIZATION.i, COMPTONIZATION.j, COMPTONIZATION.k) == (2, 2, 2)

    def drift(theta, x):
        return 4.0 * x - x**2 / theta

    assert drift(1.0, 1.0) == 3.0
    # the drift changes sign at x = (i + k) theta
    theta = 4.0 / 3.0
    assert drift(theta, 4.0 * theta) == pytest.approx(0.0, abs=1e-12)
    assert drift(theta, 4.0 * theta - 0.5) > 0 > drift(theta, 4.0 * theta + 0.5)


def test_diffusion_rate_ignores_temperature():
    # the spreading rate 2 x^k is twice the diffusion coefficient C = x^k,
    # which the operator holds as interface conductances x^k / gap; they
    # are built once per grid and no assembly at any theta touches them
    grid = Grid.log_spaced(cells=40, snapshots=())
    op = _Operator(grid, COMPTONIZATION)
    xe = np.asarray(grid.edges[1:-1])
    g = op.g.copy()
    assert np.allclose(g * np.diff(grid.centers), xe**2, rtol=1e-14)
    op.assemble(0.5)
    op.assemble(7.0)
    assert np.array_equal(op.g, g)


def test_operator_conserves_number_exactly():
    grid = Grid.log_spaced(cells=300, snapshots=())
    x = grid.centers
    for F in (x**3 * np.exp(-x / 2.0), np.ones_like(x), 1.0 / (1.0 + x**2)):
        AF = apply_operator(grid, F, theta=0.7)
        scale = np.max(np.abs(AF)) * np.max(grid.widths)
        assert abs(np.sum(AF * grid.widths)) <= 1e-12 * max(scale, 1e-300)


def test_stationary_equilibrium_state(wien_run):
    """README, acceptance check 9: "the equilibrium fixed point is
    stationary to 5e-14" (measured: 3.99e-14 of the largest cell value)."""
    start = wien_run.snapshot(0.0)
    worst = max(float(np.max(np.abs(F - start))) for _, F in wien_run.snapshots)
    assert worst <= 1e-13 * float(np.max(start))


# ---------------------------------------------------------------------------
# full solves


def test_number_conserved_along_traces(mono_run, brems_run, negctl_run):
    for sol in (mono_run, brems_run, negctl_run):
        n = sol.trace_number
        assert np.max(np.abs(n - n[0])) <= 1e-12 * abs(n[0])


def test_snapshot_lookup(mono_run):
    assert tuple(t for t, _ in mono_run.snapshots) == RUN_SNAPSHOTS
    assert mono_run.snapshot(0.5) is not None
    with pytest.raises(SnapshotMissing):
        mono_run.snapshot(0.123)


def _synthetic_solution(times):
    grid = Grid.log_spaced(cells=8, x_min=1e-2, x_max=10.0, y_end=times[-1], snapshots=times)
    states = tuple((t, np.full(8, float(k))) for k, t in enumerate(grid.snapshot_times))
    empty = np.zeros(0)
    return transport.PdeSolution(grid=grid, params=COMPTONIZATION, theta_description="synthetic",
                                 snapshots=states, trace_y=empty, trace_number=empty,
                                 trace_energy=empty, stats={})


def test_snapshot_lookup_takes_nearest_earlier_on_tie():
    sol = _synthetic_solution([0.0, 2e-10, 1.0])
    (_, first), (_, second), (_, last) = sol.snapshots
    assert sol.snapshot(1e-10) is first  # equidistant from 0 and 2e-10
    assert sol.snapshot(1.5e-10) is second
    assert sol.snapshot(1.0 + 5e-10) is last
    for y in (0.5, 1.1, -0.1):
        with pytest.raises(SnapshotMissing):
            sol.snapshot(y)


def test_snapshot_lookup_scales_to_many_snapshots():
    # a scan of every stored time per lookup would make about 9e8 key
    # calls here; the lookup bisects
    sol = _synthetic_solution(np.linspace(0.0, 3.0, 30_000).tolist())
    start = time.perf_counter()
    assert all(sol.snapshot(t) is F for t, F in sol.snapshots)
    assert time.perf_counter() - start < 5.0


def test_spectrum_views(mono_run):
    x = mono_run.grid.centers
    F = mono_run.snapshot(1.0)
    assert np.allclose(mono_run.photon_spectrum(1.0), F / x**2)
    assert np.allclose(mono_run.energy_spectrum(1.0), F * x)
    got = mono_run.moment(3, 1.0)
    assert got == grid_moment(mono_run.grid, F, 3, COMPTONIZATION)


@pytest.mark.parametrize("i", [Fraction(2), Fraction(7, 3)], ids=["i=2", "i=7/3"])
def test_moment_rule_shared_by_spectra_and_traces(i):
    # I_3 by grid_moment, the energy spectrum summed over the cells and the
    # solver's energy trace all read one weight x^(3-i), to the last bit
    params = TransportParams(i, 2, 2, 4)
    grid = Grid.log_spaced(cells=64, x_min=1e-2, x_max=20.0, y_end=0.5, snapshots=3)
    sol = solve_transport(Bremsstrahlung(), RationalForm.constant(1.0), grid, params=params)
    trace = dict(zip(sol.trace_y.tolist(), sol.trace_energy.tolist()))
    for y, F in sol.snapshots:
        i3 = grid_moment(grid, F, 3, params)
        assert float(np.sum(sol.energy_spectrum(y) * grid.widths)) == i3
        assert trace[y] == i3
        assert np.allclose(sol.photon_spectrum(y) * grid.centers ** float(i), F, rtol=1e-15, atol=0)


def test_initial_energy_integral_matches_line(mono_run):
    # quadrature of x^3 f at y = 0 recovers the line's I_3 = 4 up to the
    # midpoint-rule error of the narrow replacement pulse
    assert mono_run.moment(3, 0.0) == pytest.approx(4.0, rel=1e-4)


def test_energy_spectrum_nonnegative(mono_run, brems_run):
    for sol in (mono_run, brems_run):
        for t, _ in sol.snapshots:
            assert float(np.min(sol.energy_spectrum(t))) >= 0.0


def test_monoenergetic_replaced_by_narrow_pulse():
    grid = Grid.log_spaced(cells=200, snapshots=())
    F, actual = initial_cell_values(Monoenergetic(), grid, COMPTONIZATION)
    assert actual == Monoenergetic().stand_in == GaussianPulse(mean=4, variance=Fraction(1, 100), n0=1)
    x = grid.centers
    assert np.argmax(F / x**2) == np.argmin(np.abs(x - 4.0))


def test_negative_temperature_rejected():
    grid = Grid.log_spaced(cells=16, snapshots=())
    with pytest.raises(NonPositiveTemperature):
        solve_transport(Bremsstrahlung(), RationalForm.constant(-1.0), grid)


def test_temperature_crossing_zero_rejected(mono_table):
    # the order-2 Taylor sum 1 + 2y - 6y^2 turns negative inside [0, 2]
    theta = taylor_form(mono_table, 2)
    grid = Grid.log_spaced(cells=16, snapshots=())
    with pytest.raises(NonPositiveTemperature):
        solve_transport(Monoenergetic(), theta, grid)


def test_doublet_level_rejected_before_any_step(monkeypatch):
    # level 48 of the pulse fraction has a pole next to a zero of P at
    # y = 0.110, a Froissart doublet that float samples of it step over;
    # the exact root count finds it before the first linear solve
    cf = cf_coefficients(theta_derivatives_comptonization(Monoenergetic(), 48))
    theta = to_rational(cf, 48)

    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(_Operator, "solve", no_step)
    grid = Grid.log_spaced(cells=32, snapshots=2)
    with pytest.raises(PoleHit, match=r"level 48 .* pole of multiplicity 1 at y = 0\.11000465"):
        solve_transport(Monoenergetic(), theta, grid, rtol=1e-3)


def test_bare_callable_driver_rejected():
    # a prescribed theta must certify its own positivity; a plain callable cannot
    grid = Grid.log_spaced(cells=16, snapshots=())
    with pytest.raises(TypeError, match="must certify itself finite and positive"):
        solve_transport(Bremsstrahlung(), lambda y: 1.0, grid)


def test_any_theta_that_certifies_itself_runs():
    # transport names no form kind: a value, a certify and a description
    # make a prescribed theta, and it runs as the equal RationalForm does
    class Flat:
        description = "flat 1"

        def __init__(self):
            self.certified = []

        def __call__(self, y):
            return 1.0

        def certify(self, y_end):
            self.certified.append(y_end)

    grid = Grid.log_spaced(cells=40, snapshots=3)
    flat = Flat()
    sol = solve_transport(Bremsstrahlung(), flat, grid)
    assert flat.certified == [grid.y_end]
    assert sol.theta_description == "flat 1"
    want = solve_transport(Bremsstrahlung(), RationalForm.constant(1.0), grid)
    for (_, got), (_, expected) in zip(sol.snapshots, want.snapshots):
        assert np.array_equal(got, expected)


def test_nonfinite_temperature_mid_run_rejected(monkeypatch):
    # a NaN that reaches a stage mid-run, as from a temperature that turns
    # NaN, must stop the run at the step error norm: every solve after the
    # first returns NaN
    solve, calls = _Operator.solve, []

    def nan_after_first(self, bands, dy, rhs):
        calls.append(None)
        x = solve(self, bands, dy, rhs)
        return x if len(calls) == 1 else np.full_like(x, math.nan)

    monkeypatch.setattr(_Operator, "solve", nan_after_first)
    grid = Grid.log_spaced(cells=40, snapshots=())
    with pytest.raises(NonFiniteState, match="step error norm is nan"):
        solve_transport(Bremsstrahlung(), RationalForm.constant(1.0), grid)
    assert len(calls) == 5  # the five implicit stages of the first step


@pytest.mark.parametrize("y_end", [1e-300, 1e-14])
def test_span_within_end_tolerance_rejected(y_end):
    # no step would be taken, and every snapshot would be the initial state
    grid = Grid.log_spaced(cells=8, y_end=y_end, snapshots=2)
    with pytest.raises(ValueError, match="no step to take"):
        solve_transport(Monoenergetic(), RationalForm.constant(1.0), grid)


def test_step_budget_enforced():
    grid = Grid.log_spaced(cells=40, snapshots=())
    theta = RationalForm.constant(1.0)
    with pytest.raises(StepSizeUnderflow):
        solve_transport(Monoenergetic(), theta, grid, max_steps=3)
    # the budget counts every attempt, and a run that fits it exactly passes
    stats = solve_transport(Monoenergetic(), theta, grid).stats
    attempts = stats["steps_accepted"] + stats["steps_rejected"]
    solve_transport(Monoenergetic(), theta, grid, max_steps=attempts)
    with pytest.raises(StepSizeUnderflow):
        solve_transport(Monoenergetic(), theta, grid, max_steps=attempts - 1)


def test_negative_stage_rejected_and_retried():
    # a first step of 0.5 on a coarse free-free grid drives a stage below
    # the clipping tolerance; the solver must back off rather than clip,
    # keeping every state non-negative and the number exact
    grid = Grid.log_spaced(cells=40, snapshots=2)
    sol = solve_transport(
        Bremsstrahlung(), RationalForm.constant(1.0), grid, rtol=0.1, initial_dy=0.5
    )
    assert sol.stats["steps_rejected_negative"] > 0
    assert sol.stats["steps_rejected"] >= sol.stats["steps_rejected_negative"]
    assert sol.stats["cells_clipped"] == 0
    for _, F in sol.snapshots:
        assert float(F.min()) >= 0.0
    n = sol.trace_number
    assert np.max(np.abs(n - n[0])) <= 1e-12 * abs(n[0])


def test_negative_stage_at_step_floor_refused(monkeypatch):
    # the same first step with the floor raised to 0.3: halving 0.5 would
    # go below the floor, so the solver refuses rather than clip
    monkeypatch.setattr(transport, "step_floor", lambda y_end: 0.3)
    grid = Grid.log_spaced(cells=40, snapshots=2)
    with pytest.raises(
        PositivityViolation, match=r"^solution dips below zero at y = 0 even at step 5\.000e-01$"
    ):
        solve_transport(
            Bremsstrahlung(), RationalForm.constant(1.0), grid, rtol=0.1, initial_dy=0.5
        )


def test_clamped_steps_land_exactly_and_read_theta_within_y_end():
    # the first step lands on 0.3 and the second is clamped to 0.9 - 0.3,
    # which is 0.6000000000000001 in floats: y + dy_try would end past 0.9
    seen = []

    class Recording(RationalForm):
        def __call__(self, y):
            seen.append(float(y))
            return super().__call__(y)

    wien = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=1.0)
    theta = Recording((1,), (1,), "constant 1, recorded")
    grid = Grid.log_spaced(cells=40, y_end=0.9, snapshots=(0.0, 0.3, 0.9))
    sol = solve_transport(wien, theta, grid, initial_dy=0.3)
    assert sol.trace_y[-1] == 0.9
    assert [t for t, _ in sol.snapshots] == [0.0, 0.3, 0.9]
    assert max(seen) <= grid.y_end


def test_clipping_keeps_photon_number():
    # a coarse pulse grid at loose tolerance lands accepted steps with
    # a few slightly negative cells; zeroing them must not add photons
    grid = Grid.log_spaced(cells=40, snapshots=2)
    sol = solve_transport(Monoenergetic(), RationalForm.constant(1.0), grid, rtol=0.1)
    assert sol.stats["cells_clipped"] > 0
    assert sol.number_drift <= 1e-12
    for _, F in sol.snapshots:
        assert float(F.min()) >= 0.0


# ---------------------------------------------------------------------------
# self-consistent closure theta = I_4 / (4 I_3)


def closure_curve(sol):
    """theta_ref = I_4 / (4 I_3) of every snapshot, by the solver's cell rule."""
    return [sol.moment(4, t) / (4.0 * sol.moment(3, t)) for t, _ in sol.snapshots]


@pytest.fixture(scope="module")
def closure_runs():
    """The closure on the two shipped reproduce grids."""
    return {
        "pulse": solve_transport(
            Monoenergetic(), SELF_CONSISTENT,
            Grid.log_spaced(cells=400, x_min=1e-3, snapshots=21),
        ),
        "freefree": solve_transport(
            Bremsstrahlung(), SELF_CONSISTENT,
            Grid.log_spaced(cells=600, x_min=1e-5, snapshots=21),
        ),
    }


def test_closure_keeps_wien_fixed_point():
    # the sampled Wien spectrum at theta_eq = 4/3 reads its own temperature
    # back; the solver must leave it there (measured: within 5.1e-11)
    grid = Grid.log_spaced(cells=400, snapshots=21)
    ic = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=Fraction(4, 3))
    sol = solve_transport(ic, SELF_CONSISTENT, grid)
    assert sol.theta_description == "self-consistent closure I_4/(4 I_3)"
    assert len(sol.snapshots) == 21
    for value in closure_curve(sol):
        assert abs(value - 4.0 / 3.0) <= 1e-10


def test_closure_conserves_photon_number(closure_runs):
    for sol in closure_runs.values():
        assert sol.number_drift <= 1e-12


@pytest.mark.parametrize(
    "case, want",
    # theta_ref(2) / theta_ref(0); rtol 1e-6 and 1e-8 agree within 6e-7
    [("pulse", 1.331887), ("freefree", 0.148193)],
)
def test_closure_reference_temperature_pinned(closure_runs, case, want):
    sol = closure_runs[case]
    curve = closure_curve(sol)
    assert sol.snapshots[-1][0] == 2.0
    assert curve[-1] / curve[0] == pytest.approx(want, rel=1e-5)


def test_closure_l1_to_equilibrium_as_readme_states(closure_runs):
    """README, acceptance check 9: driving the solver with the closure
    "brings the L1 distance down to 0.08%" (measured: 0.0816%)."""
    sol = closure_runs["pulse"]
    x, dx = sol.grid.centers, sol.grid.widths
    # criterion 9's distance to the Wien energy spectrum carrying I_3 = 4
    G_eq = (27.0 / 128.0) * x**3 * np.exp(-0.75 * x)
    l1 = float(np.sum(np.abs(sol.energy_spectrum(2.0) - G_eq) * dx)) / 4.0
    assert 0.0007 <= l1 <= 0.0009


def test_closure_needs_comptonization():
    grid = Grid.log_spaced(cells=40, snapshots=())
    with pytest.raises(UnsupportedParams):
        solve_transport(
            Monoenergetic(), SELF_CONSISTENT, grid,
            params=TransportParams(2, 1, 2, 4),
        )


def test_closure_of_empty_spectrum_rejected():
    # the pulse at x = 4 underflows to zero on [20, 50]: I_3 = 0
    grid = Grid.log_spaced(cells=40, x_min=20.0, snapshots=())
    with pytest.raises(NonPositiveTemperature):
        solve_transport(Monoenergetic(), SELF_CONSISTENT, grid)


def test_unsettled_closure_stage_retried_narrower(monkeypatch):
    grid = Grid.log_spaced(cells=80, snapshots=5)
    settled = solve_transport(Monoenergetic(), SELF_CONSISTENT, grid)
    # fewer solves than the stages need: attempts are rejected, never
    # accepted, and the narrower retries reach the same temperatures
    monkeypatch.setattr(transport, "_CLOSURE_ITERATIONS", 6)
    capped = solve_transport(Monoenergetic(), SELF_CONSISTENT, grid)
    assert capped.stats["steps_rejected"] > settled.stats["steps_rejected"]
    assert capped.stats["steps_rejected_negative"] == 0
    for a, b in zip(closure_curve(capped), closure_curve(settled)):
        assert a == pytest.approx(b, rel=1e-5)
    # one solve per stage never settles, so the step shrinks to its floor
    monkeypatch.setattr(transport, "_CLOSURE_ITERATIONS", 1)
    with pytest.raises(StepSizeUnderflow):
        solve_transport(Monoenergetic(), SELF_CONSISTENT, grid)


# ---------------------------------------------------------------------------
# the stepper's tableau, and a bit-identity oracle: the ESDIRK loop written plainly

# ESDIRK4(3)6L[2]SA (Kennedy & Carpenter 2003) in exact rationals: the
# nodes, the explicit weights a_i1 ... a_i,i-1 of stages 2 ... 5, the shared
# diagonal, the weights b (also the sixth row) and the embedded weights b_hat
ESDIRK_C = (0, Fraction(1, 2), Fraction(83, 250), Fraction(31, 50), Fraction(17, 20), 1)
ESDIRK_ROWS = (
    (Fraction(1, 4),),
    (Fraction(8611, 62500), Fraction(-1743, 31250)),
    (Fraction(5012029, 34652500), Fraction(-654441, 2922500), Fraction(174375, 388108)),
    (Fraction(15267082809, 155376265600), Fraction(-71443401, 120774400),
     Fraction(730878875, 902184768), Fraction(2285395, 8070912)),
)
ESDIRK_GAMMA = Fraction(1, 4)
ESDIRK_B = (Fraction(82889, 524892), 0, Fraction(15625, 83664), Fraction(69875, 102672),
            Fraction(-2260, 8211), Fraction(1, 4))
ESDIRK_B_HAT = (Fraction(4586570599, 29645900160), 0, Fraction(178811875, 945068544),
                Fraction(814220225, 1159782912), Fraction(-3700637, 11593932),
                Fraction(61727, 225920))


def esdirk_matrix():
    """The full 6 x 6 matrix A: row 1 zero, the diagonal gamma below it, and b as row 6."""
    rows = [(), *ESDIRK_ROWS, ESDIRK_B[:5]]
    return [[(row[j] if j < len(row) else ESDIRK_GAMMA if j == i > 0 else Fraction(0))
             for j in range(6)] for i, row in enumerate(rows)]


def order_residuals(weights, A, order):
    """sum w Phi - 1/gamma(tree) for every rooted tree up to ``order``
    (1, 1, 2 and 4 trees of orders 1 ... 4): all zero when the weights
    meet the order conditions."""
    c = [sum(row) for row in A]
    Ac = [sum(a * cj for a, cj in zip(row, c)) for row in A]
    Acc = [sum(a * cj * cj for a, cj in zip(row, c)) for row in A]
    AAc = [sum(a * v for a, v in zip(row, Ac)) for row in A]
    trees = [([1] * 6, 1), (c, Fraction(1, 2)),
             ([v * v for v in c], Fraction(1, 3)), (Ac, Fraction(1, 6)),
             ([v ** 3 for v in c], Fraction(1, 4)), ([u * v for u, v in zip(c, Ac)], Fraction(1, 8)),
             (Acc, Fraction(1, 12)), (AAc, Fraction(1, 24))]
    count = {1: 1, 2: 2, 3: 4, 4: 8}[order]
    return [sum(w * p for w, p in zip(weights, phi)) - want for phi, want in trees[:count]]


def _solve_exact(M, rhs):
    """x with M x = rhs for a lower-triangular M, in exact Fractions."""
    x = []
    for i, row in enumerate(M):
        x.append((rhs[i] - sum(row[j] * x[j] for j in range(i))) / Fraction(row[i]))
    return x


def test_esdirk_tableau():
    A = esdirk_matrix()
    # the row sums are the nodes, and the last row is b: stiffly accurate
    assert [sum(row) for row in A] == [Fraction(c) for c in ESDIRK_C]
    assert A[-1] == list(ESDIRK_B)
    # b is fourth order (all 8 conditions), b_hat third order (all 4) and no more
    assert order_residuals(ESDIRK_B, A, 4) == [0] * 8
    assert order_residuals(ESDIRK_B_HAT, A, 3) == [0] * 4
    assert order_residuals(ESDIRK_B_HAT, A, 4)[4:] != [0] * 4
    # L-stable: the stability function R(z) = 1 + z b (I - z A)^-1 1 is
    # under 1e-7 at z = -1e8 (exactly: 9e-8), and tends to 0
    for z, bound in ((-10**8, Fraction(1, 10**7)), (-10**12, Fraction(1, 10**10))):
        u = _solve_exact([[int(i == j) - z * A[i][j] for j in range(6)] for i in range(6)], [1] * 6)
        assert abs(1 + z * sum(b * v for b, v in zip(ESDIRK_B, u))) < bound
    # transport's floats are these rationals, each rounded once
    assert transport._DIAGONAL == float(ESDIRK_GAMMA)
    assert transport._STAGES == [
        (float(c), [float(a) for a in row])
        for c, row in zip(ESDIRK_C[1:], (*ESDIRK_ROWS, ESDIRK_B[:5]))
    ]
    assert transport._ERROR == [float(b - bh) for b, bh in zip(ESDIRK_B, ESDIRK_B_HAT)]


def plain_apply(bands, F):
    lower, diag, upper = bands
    AF = diag * F
    AF[:-1] += upper[1:] * F[1:]
    AF[1:] += lower[:-1] * F[:-1]
    return AF


def plain_step(F, bands, dy):
    lower, diag, upper = bands
    _, _, _, F_new, info = public_dgtsv(-dy * lower[:-1], 1.0 - dy * diag, -dy * upper[1:], F)
    assert info == 0
    return F_new


def plain_esdirk(spectrum, theta, grid, params=COMPTONIZATION, rtol=1e-6, initial_dy=1e-5):
    """ESDIRK4(3)6L[2]SA with its embedded estimate, one plain numpy
    expression per formula, at the floats of the exact tableau above:
    every stage matrix is built for each solve, from bands assembled from
    scratch.  Returns what solve_transport returns, as (snapshots,
    trace_y, trace_number, trace_energy, stats)."""
    c = [float(v) for v in ESDIRK_C]
    a = [[float(v) for v in row] for row in (*ESDIRK_ROWS, ESDIRK_B[:5])]
    gamma = float(ESDIRK_GAMMA)
    e = [float(b - bh) for b, bh in zip(ESDIRK_B, ESDIRK_B_HAT)]
    counts = {"assemblies": 0, "linear_solves": 0}

    def assemble(y):
        counts["assemblies"] += 1
        return assemble_from_scratch(grid, theta(y), params)

    def step(F, bands, dy):
        counts["linear_solves"] += 1
        return plain_step(F, bands, dy)

    def below_clip(G):
        return float(G.min()) < -1e-6 * float(np.max(np.abs(G)))

    def weighted(w, k):
        # left to right: ((w1 k1 + w2 k2) + w3 k3) + ...
        total = w[0] * k[0]
        for wj, kj in zip(w[1:], k[1:]):
            total = total + wj * kj
        return total

    F, actual = initial_cell_values(spectrum, grid, params)
    F = F.copy()
    dx = grid.widths
    energy_weight = grid.centers ** float(Fraction(3) - params.i)
    k1 = plain_apply(assemble(0.0), F)
    atol = 1e-3 * rtol * float(np.max(F)) if np.max(F) > 0 else 1e-3 * rtol
    y, dy = 0.0, float(initial_dy)
    min_dy = 1e-13 * max(1.0, grid.y_end)
    pending = list(grid.snapshot_times)
    snaps = []
    if pending and abs(pending[0]) <= 1e-12:
        snaps.append((0.0, F.copy()))
        pending.pop(0)
    trace_y = [0.0]
    trace_number = [float(np.sum(F * dx))]
    trace_energy = [float(np.sum(energy_weight * F * dx))]
    accepted = rejected = rejected_negative = clipped = 0
    dy_min, dy_max, decades = math.inf, 0.0, {}
    while y < grid.y_end - 1e-14:
        target = pending[0] if pending else grid.y_end
        h = min(dy, target - y, grid.y_end - y)
        assert h >= min_dy
        dh = gamma * h
        k, stages = [k1], []
        for i in range(1, 6):
            rhs = F + h * weighted(a[i - 1], k)
            bands = assemble(y + h if i == 5 else y + c[i] * h)
            G = step(rhs, bands, dh)
            k.append((G - rhs) / dh)
            stages.append(G)
        F_new = stages[-1]
        est = h * weighted(e, k)
        err = float(np.max(np.abs(est) / (atol + rtol * np.abs(F_new))))
        assert math.isfinite(err)
        negative = any(below_clip(G) for G in stages)
        if negative or err > 1.0:
            rejected += 1
            shrink = max(0.25, 0.9 * err ** -0.25) if err > 1.0 else 1.0
            if negative:
                rejected_negative += 1
                shrink = min(shrink, 0.5)
            dy = max(h * shrink, min_dy / 2)
            continue
        y += h
        k_new = k[5]
        neg = F_new < 0
        if np.any(neg):
            clipped += int(np.count_nonzero(neg))
            number = float(np.sum(F_new * dx))
            F_new = np.where(neg, 0.0, F_new)
            F_new *= number / float(np.sum(F_new * dx))
            k_new = plain_apply(bands, F_new)
        F, k1 = F_new, k_new
        accepted += 1
        dy_min, dy_max = min(dy_min, h), max(dy_max, h)
        decades[math.floor(math.log10(h))] = decades.get(math.floor(math.log10(h)), 0) + 1
        trace_y.append(y)
        trace_number.append(float(np.sum(F * dx)))
        trace_energy.append(float(np.sum(energy_weight * F * dx)))
        if pending and abs(y - pending[0]) <= 1e-12:
            snaps.append((pending.pop(0), F.copy()))
        dy = h * (4.0 if err == 0.0 else min(4.0, max(0.25, 0.9 * err ** -0.25)))
    while pending and abs(y - pending[0]) <= 1e-9:
        snaps.append((pending.pop(0), F.copy()))
    assert not pending
    stats = {
        "method": "esdirk4(3)6l[2]sa",
        "steps_accepted": accepted,
        "steps_rejected": rejected,
        "steps_rejected_negative": rejected_negative,
        "cells_clipped": clipped,
        **counts,
        "dy_min": dy_min if accepted else 0.0,
        "dy_max": dy_max,
        "dy_histogram": [[float(f"1e{e}"), n] for e, n in sorted(decades.items())],
        "rtol": rtol,
        "spectrum": actual.describe(),
    }
    return snaps, trace_y, trace_number, trace_energy, stats


def _shipped_case(spectrum, cf_fixture, selection_fixture, cells, x_min):
    """A shipped reproduce scenario: its grid, driven by its selected level."""

    def case(request):
        cf = request.getfixturevalue(cf_fixture)
        level = request.getfixturevalue(selection_fixture).level
        theta = to_rational(cf, level)
        grid = Grid.log_spaced(cells=cells, x_min=x_min, x_max=50.0, y_end=2.0, snapshots=21)
        return dict(spectrum=spectrum, theta=theta, grid=grid)

    return case


ORACLE_CASES = {
    "pulse": _shipped_case(Monoenergetic(), "mono_cf", "mono_selection", 400, 1e-3),
    "freefree": _shipped_case(Bremsstrahlung(), "brems_cf", "brems_selection", 600, 1e-5),
    # p = 0 takes the logarithmic interface exponent
    "p0": lambda request: dict(
        spectrum=Monoenergetic(), theta=RationalForm.constant(Fraction(4, 3)),
        grid=Grid.log_spaced(cells=120, snapshots=5), params=TransportParams(2, 1, 2, 4),
    ),
    # accepted steps clip cells and are rescaled
    "clipping": lambda request: dict(
        spectrum=Monoenergetic(), theta=RationalForm.constant(1.0),
        grid=Grid.log_spaced(cells=40, snapshots=2), rtol=0.1,
    ),
    # stages dip below the clipping tolerance and are retried
    "negative": lambda request: dict(
        spectrum=Bremsstrahlung(), theta=RationalForm.constant(1.0),
        grid=Grid.log_spaced(cells=40, snapshots=2), rtol=0.1, initial_dy=0.5,
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_solve_bit_identical_to_plain_tr_bdf2(request, case):
    kwargs = ORACLE_CASES[case](request)
    sol = solve_transport(**kwargs)
    snaps, trace_y, trace_number, trace_energy, stats = plain_esdirk(**kwargs)
    assert [t for t, _ in sol.snapshots] == [t for t, _ in snaps]
    for (_, got), (_, want) in zip(sol.snapshots, snaps):
        assert np.array_equal(got, want)
    assert np.array_equal(sol.trace_y, trace_y)
    assert np.array_equal(sol.trace_number, trace_number)
    assert np.array_equal(sol.trace_energy, trace_energy)
    assert {k: v for k, v in sol.stats.items() if k != "wall_s"} == stats
    if case == "clipping":
        assert stats["cells_clipped"] > 0
    if case == "negative":
        assert stats["steps_rejected_negative"] > 0


def test_solve_on_scipy_dgtsv_matches_numpy_path(monkeypatch, request):
    # a whole run, rejected and retried attempts included, on the
    # fallback that a numpy without the symbol (MKL, a system LAPACK) takes
    kwargs = ORACLE_CASES["negative"](request)
    want = solve_transport(**kwargs)
    monkeypatch.setattr(transport, "_numpy_gtsv", None)
    monkeypatch.setattr(transport, "dgtsv", public_dgtsv)
    got = solve_transport(**kwargs)
    assert got.stats["steps_rejected_negative"] > 0
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a, b)
    for name in ("trace_y", "trace_number", "trace_energy"):
        assert np.array_equal(getattr(got, name), getattr(want, name))

    def without_wall(stats):
        return {k: v for k, v in stats.items() if k != "wall_s"}

    assert without_wall(got.stats) == without_wall(want.stats)


def test_equilibrium_fixed_point_from_large_first_step():
    grid = Grid.log_spaced(cells=400, snapshots=21)
    ic = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=Fraction(4, 3))
    sol = solve_transport(
        ic, RationalForm.constant(Fraction(4, 3)), grid, rtol=1e-6, initial_dy=2.0
    )
    start = sol.snapshot(0.0)
    assert np.max(np.abs(sol.snapshot(2.0) - start)) <= 1e-10 * np.max(start)
    for trace in (sol.trace_number, sol.trace_energy):
        assert np.max(np.abs(trace - trace[0])) <= 1e-10 * abs(trace[0])


def test_recovered_temperature_converged_in_rtol(mono_theta):
    # the shipped tolerance already gives theta_out to well within 1e-4 of
    # a run at a thousand times tighter tolerance
    grid = Grid.log_spaced(cells=60, snapshots=21)
    shipped = output_temperature(solve_transport(Monoenergetic(), mono_theta, grid, rtol=1e-6))
    tight = output_temperature(solve_transport(Monoenergetic(), mono_theta, grid, rtol=1e-9))
    assert [y for y, _ in shipped] == [y for y, _ in tight]
    assert max(abs(a - b) / b for (_, a), (_, b) in zip(shipped, tight)) <= 1e-4


@pytest.mark.parametrize("case", ["pulse", "freefree"])
def test_shipped_theta_out_within_1e6_of_tight_run(request, case):
    # on each shipped grid and driver, theta_out at the shipped rtol 1e-6
    # lies within 1e-6 (relative) of a run at rtol 1e-10 (measured: 1.8e-7
    # pulse, 6.0e-7 free-free, in 110 and 73 steps against 909 and 561)
    kwargs = ORACLE_CASES[case](request)
    shipped = output_temperature(solve_transport(**kwargs, rtol=1e-6))
    tight = output_temperature(solve_transport(**kwargs, rtol=1e-10))
    assert [y for y, _ in shipped] == [y for y, _ in tight]
    assert max(abs(a - b) / b for (_, a), (_, b) in zip(shipped, tight)) <= 1e-6


def test_solver_stats(mono_run):
    stats = mono_run.stats
    assert stats["steps_accepted"] > 0
    assert stats["rtol"] == 1e-6
    assert stats["dy_min"] <= stats["dy_max"]
    assert stats["method"] == "esdirk4(3)6l[2]sa"
    attempts = stats["steps_accepted"] + stats["steps_rejected"]
    # one assembly for the initial rate; per attempt five implicit stages,
    # each one assembly and one solve, and an error estimate with no solve
    assert stats["assemblies"] == 5 * attempts + 1
    assert stats["linear_solves"] == 5 * attempts
    histogram = stats["dy_histogram"]
    assert sum(n for _, n in histogram) == stats["steps_accepted"]
    edges = [lo for lo, _ in histogram]
    assert edges == sorted(edges)
    assert edges[0] <= stats["dy_min"] < 10 * edges[0]
    assert edges[-1] <= stats["dy_max"] < 10 * edges[-1]
    assert "pulse" in stats["spectrum"] or "gaussian" in stats["spectrum"].lower()
    assert 0.0 < stats["wall_s"] < 60.0


# the floats nearest the decimal ties (d + 1/2) 10^k of 13-digit integers d,
# which lie within the renderer's margin of a tie
near_ties = st.builds(lambda d, e: float(f"{d}5e{e}"),
                      st.integers(10**12, 10**13 - 1), st.integers(-295, 295))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.floats(1e-300, 1e300) | near_ties, min_size=1, max_size=40))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.2250738585072014e-308,
          -1.5, -1.5e-100])
# the ends of the array path's range and the floats just outside it
@example([1e-280, 1e280, math.nextafter(1e-280, 0), math.nextafter(1e280, math.inf)])
# decade round-ups: the mantissa rounds up to 10^13, or just does not
@example([9.9999999999995e-5, 9.99999999999949e-5, 9.99999999999951e-5, 9.9999999999995e99])
# exact binary ties in the 14th digit, which round half to even
@example([2.0**-20, 2.0**-19, 1234567890123.5, 9999999999999.5, 1000000000000.5])
def test_render_e12_matches_percent_format(values):
    fields = transport._render_e12(np.array(values))
    assert [f.tobytes().rstrip(b"\0").decode() for f in fields] == ["%.12e" % v for v in values]


@pytest.mark.parametrize("run", ["mono_run", "brems_run"])
def test_snapshot_csv_bytes_on_shipped_grids(request, run):
    # every snapshot file equals an f-string rendering of the solution's
    # public arrays; these grids hold each case the renderer passes to
    # Python's formatting (zeros and values below 1e-280 on the pulse grid,
    # near-ties on both) and 3-digit exponents
    sol = request.getfixturevalue(run)
    for y, _ in sol.snapshots:
        columns = (sol.grid.centers, sol.snapshot(y), sol.photon_spectrum(y),
                   sol.energy_spectrum(y))
        expected = "x,F,f,G\n" + "".join(
            f"{x:.12e},{F:.12e},{f:.12e},{G:.12e}\n" for x, F, f, G in zip(*columns)
        )
        assert sol.snapshot_csv(y) == expected


def test_snapshot_csv_round_trip(tmp_path, mono_run):
    path = tmp_path / "snap.csv"
    write_snapshot_csv(mono_run, 2.0, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert path.read_text() == mono_run.snapshot_csv(2.0)
    assert mono_run.snapshot_csv(2.0).startswith("x,F,f,G\n")
    assert rows.shape == (400, 4)
    x, F, f, G = rows.T
    assert np.allclose(x, mono_run.grid.centers)
    assert np.allclose(F, mono_run.snapshot(2.0), rtol=1e-10, atol=1e-295)
    assert np.allclose(f * x**2, F, rtol=1e-10, atol=1e-295)
    assert np.allclose(G, F * x, rtol=1e-10, atol=1e-295)


def test_run_manifest(tmp_path, mono_run):
    path = tmp_path / "run.json"
    write_run_manifest(mono_run, path, snapshot_files={"2.0": "snap.csv"})
    data = json.loads(path.read_text())
    assert data["schema"] == "compfrac.run-manifest/1"
    assert data["grid"]["cells"] == 400
    assert data["snapshot_files"] == {"2.0": "snap.csv"}
    assert "written_at" not in data
    assert data["conservation"]["y"][0] == 0.0
    assert len(data["conservation"]["number"]) == len(data["conservation"]["y"])
