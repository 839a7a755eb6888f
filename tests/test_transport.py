"""Tests for the finite-volume transport solver.

The operator oracle is analytic: for F = x^3 exp(-x/2) at unit
temperature the flux divergence is exp(-x/2)(4x^3 + 2x^4 - x^5/4),
obtained by differentiating the flux x^4 exp(-x/2)(1 + x/2) by hand.
The discrete operator must approach it at second order in the cell
width.  The detailed-balance structure of the interface weights makes
the sampled equilibrium profile an exact stationary state, which is
tested directly.
"""

import importlib.machinery
import importlib.util
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv as public_dgtsv

from compfrac import transport
from compfrac.spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    GaussianPulse,
    Monoenergetic,
    TransportParams,
    equilibrium_spectrum,
)
from compfrac.transport import (
    Grid,
    NonFiniteState,
    NonPositiveTemperature,
    SnapshotMissing,
    StepSizeUnderflow,
    TemperatureFn,
    _lambda_minus,
    _load_dgtsv,
    _Operator,
    drift_diffusion,
    grid_moment,
    initial_cell_values,
    solve_transport,
    write_run_manifest,
    write_snapshot_csv,
)
from compfrac.verify import conservation_report, output_temperature

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
    for arr in (grid.centers, grid.widths):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_equal_grids_compare_and_hash_equal():
    a = Grid.log_spaced(cells=50, snapshots=3)
    b = Grid(edges=list(a.edges), y_end=a.y_end, snapshot_times=a.snapshot_times)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Grid.log_spaced(cells=51, snapshots=3)


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
        dict(edges=(1.0, 2.0, 3.0), y_end=1.0, snapshot_times=(1.5,)),
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
        got = op.assemble(theta)
        want = assemble_from_scratch(grid, theta, params)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_step_matches_banded_solve():
    grid = Grid.log_spaced(cells=400, snapshots=())
    F, _ = initial_cell_values(Monoenergetic(), grid, COMPTONIZATION)
    op = _Operator(grid, COMPTONIZATION)
    for theta in (0.5, 1.0, 1.6):
        lower, diag, upper = bands = op.assemble(theta)
        for dy in (1e-7, 1e-4, 0.05):
            ab = np.zeros((3, grid.cells))
            ab[0, 1:] = -dy * upper[1:]
            ab[1, :] = 1.0 - dy * diag
            ab[2, :-1] = -dy * lower[:-1]
            assert np.array_equal(op.step(F, bands, dy), solve_banded((1, 1), ab, F))


def _no_flapack_spec(monkeypatch, hits):
    real = importlib.machinery.PathFinder.find_spec

    def find_spec(name, path=None, target=None):
        if name == "scipy.linalg._flapack":
            hits.append(name)
            return None
        return real(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find_spec)


def _flapack_load_fails(monkeypatch, hits):
    real = importlib.util.module_from_spec

    def module_from_spec(spec):
        if spec.name == "scipy.linalg._flapack":
            hits.append(spec.name)
            raise ImportError("simulated load failure")
        return real(spec)

    monkeypatch.setattr(importlib.util, "module_from_spec", module_from_spec)


@pytest.mark.parametrize("breakage", [_no_flapack_spec, _flapack_load_fails],
                         ids=["spec_missing", "load_fails"])
def test_dgtsv_loader_falls_back_to_public_import(monkeypatch, breakage):
    # scipy.linalg is loaded here, so hide its LAPACK module from the
    # loader to reach the direct load it would try in a fresh process
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    hits = []
    breakage(monkeypatch, hits)
    loaded = _load_dgtsv()
    assert hits == ["scipy.linalg._flapack"]
    assert "scipy.linalg._flapack" not in sys.modules
    assert loaded is public_dgtsv
    rng = np.random.default_rng(3)
    lower, upper = rng.uniform(-1, 0, 49), rng.uniform(-1, 0, 49)
    diag, rhs = rng.uniform(2.5, 3.0, 50), rng.uniform(0, 1, 50)
    got = loaded(lower, diag, upper, rhs)
    want = transport.dgtsv(lower, diag, upper, rhs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_dgtsv_loader_keeps_loaded_scipy_linalg(monkeypatch):
    # with scipy.linalg already imported the loader takes the public
    # routine and leaves its module in sys.modules
    hits = []
    _no_flapack_spec(monkeypatch, hits)
    flapack = sys.modules["scipy.linalg._flapack"]
    assert _load_dgtsv() is public_dgtsv
    assert hits == []
    assert sys.modules["scipy.linalg._flapack"] is flapack


def test_singular_step_matrix_rejected():
    grid = Grid.log_spaced(cells=8, snapshots=())
    op = _Operator(grid, COMPTONIZATION)
    zero = np.zeros(grid.cells)
    # 1 - dy * diag vanishes on every row
    with pytest.raises(NonFiniteState):
        op.step(np.ones(grid.cells), (zero, np.ones(grid.cells), zero), 1.0)


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
    drift, diff = drift_diffusion(COMPTONIZATION, 1.0, 1.0)
    assert (drift, diff) == (3.0, 2.0)
    # the drift changes sign at x = (i + k) theta
    theta = 4.0 / 3.0
    balanced, _ = drift_diffusion(COMPTONIZATION, theta, 4.0 * theta)
    assert balanced == pytest.approx(0.0, abs=1e-12)
    below, _ = drift_diffusion(COMPTONIZATION, theta, 4.0 * theta - 0.5)
    above, _ = drift_diffusion(COMPTONIZATION, theta, 4.0 * theta + 0.5)
    assert below > 0 > above


def test_diffusion_rate_ignores_temperature():
    x = np.geomspace(1e-2, 40, 17)
    _, d_cold = drift_diffusion(COMPTONIZATION, 0.5, x)
    _, d_hot = drift_diffusion(COMPTONIZATION, 7.0, x)
    assert np.array_equal(d_cold, d_hot)
    assert np.allclose(d_cold, 2.0 * x**2, rtol=1e-15)


def test_operator_conserves_number_exactly():
    grid = Grid.log_spaced(cells=300, snapshots=())
    x = grid.centers
    for F in (x**3 * np.exp(-x / 2.0), np.ones_like(x), 1.0 / (1.0 + x**2)):
        AF = apply_operator(grid, F, theta=0.7)
        scale = np.max(np.abs(AF)) * np.max(grid.widths)
        assert abs(np.sum(AF * grid.widths)) <= 1e-12 * max(scale, 1e-300)


def test_stationary_equilibrium_state(wien_run):
    start = wien_run.snapshot(0.0)
    end = wien_run.snapshot(2.0)
    assert np.max(np.abs(end - start)) <= 1e-10 * np.max(start)


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


def test_spectrum_views(mono_run):
    x = mono_run.grid.centers
    F = mono_run.snapshot(1.0)
    assert np.allclose(mono_run.photon_spectrum(1.0), F / x**2)
    assert np.allclose(mono_run.energy_spectrum(1.0), F * x)
    got = mono_run.moment(3, 1.0)
    assert got == grid_moment(mono_run.grid, F, 3, COMPTONIZATION)


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
    assert isinstance(actual, GaussianPulse)
    assert actual.mean == Fraction(4)
    assert actual.variance == Fraction(1, 100)
    assert actual.n0 == Fraction(1)
    x = grid.centers
    assert np.argmax(F / x**2) == np.argmin(np.abs(x - 4.0))


def test_negative_temperature_rejected():
    grid = Grid.log_spaced(cells=16, snapshots=())
    with pytest.raises(NonPositiveTemperature):
        solve_transport(Bremsstrahlung(), TemperatureFn.constant(-1.0), grid)


def test_temperature_crossing_zero_rejected(mono_table):
    # the order-2 Taylor sum 1 + 2y - 6y^2 turns negative inside [0, 2]
    theta = TemperatureFn.from_table(mono_table, 2)
    grid = Grid.log_spaced(cells=16, snapshots=())
    with pytest.raises(NonPositiveTemperature):
        solve_transport(Monoenergetic(), theta, grid)


def test_nonfinite_temperature_mid_run_rejected():
    calls = []

    def fn(y):
        # finite through the 2,048-sample positivity pre-check, NaN after
        calls.append(y)
        return 1.0 if len(calls) <= 2048 else math.nan

    theta = TemperatureFn(fn, "NaN after the pre-check")
    grid = Grid.log_spaced(cells=40, snapshots=())
    with pytest.raises(NonFiniteState):
        solve_transport(Bremsstrahlung(), theta, grid)


def test_step_budget_enforced():
    grid = Grid.log_spaced(cells=40, snapshots=())
    theta = TemperatureFn.constant(1.0)
    with pytest.raises(StepSizeUnderflow):
        solve_transport(Monoenergetic(), theta, grid, max_steps=3)
    # the budget counts every attempt, and a run that fits it exactly passes
    stats = solve_transport(Monoenergetic(), theta, grid).stats
    attempts = stats["steps_accepted"] + stats["steps_rejected"]
    solve_transport(Monoenergetic(), theta, grid, max_steps=attempts)
    with pytest.raises(StepSizeUnderflow):
        solve_transport(Monoenergetic(), theta, grid, max_steps=attempts - 1)


def test_negative_stage_rejected_and_retried():
    # a first step of 0.5 on a coarse pulse grid drives a stage below the
    # clipping tolerance; the solver must back off rather than clip,
    # keeping every state non-negative and the number exact
    grid = Grid.log_spaced(cells=80, snapshots=5)
    sol = solve_transport(
        Monoenergetic(), TemperatureFn.constant(1.0), grid, rtol=1e-2, initial_dy=0.5
    )
    assert sol.stats["steps_rejected_negative"] > 0
    assert sol.stats["steps_rejected"] >= sol.stats["steps_rejected_negative"]
    assert sol.stats["cells_clipped"] == 0
    for _, F in sol.snapshots:
        assert float(F.min()) >= 0.0
    n = sol.trace_number
    assert np.max(np.abs(n - n[0])) <= 1e-12 * abs(n[0])


def test_clipping_keeps_photon_number():
    # a coarse free-free grid at loose tolerance lands accepted steps with
    # a few slightly negative cells; zeroing them must not add photons
    grid = Grid.log_spaced(cells=40, snapshots=2)
    sol = solve_transport(
        Bremsstrahlung(), TemperatureFn.constant(1.0), grid, rtol=0.1, initial_dy=0.5
    )
    assert sol.stats["cells_clipped"] > 0
    assert conservation_report(sol).number_drift <= 1e-12
    for _, F in sol.snapshots:
        assert float(F.min()) >= 0.0


def test_equilibrium_fixed_point_from_large_first_step():
    grid = Grid.log_spaced(cells=400, snapshots=21)
    ic = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=Fraction(4, 3))
    sol = solve_transport(
        ic, TemperatureFn.constant(Fraction(4, 3)), grid, rtol=1e-6, initial_dy=2.0
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


def test_solver_stats(mono_run):
    stats = mono_run.stats
    assert stats["steps_accepted"] > 0
    assert stats["rtol"] == 1e-6
    assert stats["dy_min"] <= stats["dy_max"]
    assert stats["method"] == "tr-bdf2"
    attempts = stats["steps_accepted"] + stats["steps_rejected"]
    # one assembly for the initial rate; per attempt a trapezoidal and a
    # BDF2 assembly, two stage solves and one error-filter solve
    assert stats["assemblies"] == 2 * attempts + 1
    assert stats["linear_solves"] == 3 * attempts
    histogram = stats["dy_histogram"]
    assert sum(n for _, n in histogram) == stats["steps_accepted"]
    edges = [lo for lo, _ in histogram]
    assert edges == sorted(edges)
    assert edges[0] <= stats["dy_min"] < 10 * edges[0]
    assert edges[-1] <= stats["dy_max"] < 10 * edges[-1]
    assert "pulse" in stats["spectrum"] or "gaussian" in stats["spectrum"].lower()


def test_snapshot_csv_round_trip(tmp_path, mono_run):
    path = tmp_path / "snap.csv"
    write_snapshot_csv(mono_run, 2.0, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    header = path.read_text().splitlines()[0]
    assert header == "x,F,f,G"
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
