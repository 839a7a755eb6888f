"""Tests for the self-consistency layer.

The recovered temperature is the ratio of fourth moments of the solved
spectrum, so these tests close the loop: drive the solver with the
fraction built from the initial derivatives, integrate the result, and
demand the input curve back.  The flat-temperature run on the same
grid doubles as the negative control: the check must fail loudly when
the driving curve is wrong.
"""

import json
import math

import numpy as np
import pytest

from compfrac.cli import write_json, write_table
from compfrac.spectra import Bremsstrahlung
from compfrac.contfrac import RationalForm
from compfrac.transport import SELF_CONSISTENT, Grid, SnapshotMissing, solve_transport
from compfrac.verify import output_temperature, self_consistency


def test_output_temperature_starts_at_one(mono_run, brems_run):
    for sol in (mono_run, brems_run):
        curve = output_temperature(sol)
        assert curve[0][0] == 0.0
        assert curve[0][1] == 1.0
        assert len(curve) == len(sol.grid.snapshot_times)


def test_recovered_curve_tracks_input_monoenergetic(mono_run, mono_theta):
    report = self_consistency(mono_run, mono_theta)
    assert report.passed
    assert report.max_rel_dev == pytest.approx(1.358925e-2, rel=1e-3)
    assert report.argmax_y == 2.0
    assert report.tolerance == 0.02


def test_recovered_temperature_approaches_equilibrium(mono_run):
    # the heated run climbs from 1 toward 4/3 but inherits the terminal
    # gap of the driving fraction (2.2 percent low at y = 2) on top of
    # its own tracking error; pin the measured endpoint
    curve = output_temperature(mono_run)
    assert curve[-1][0] == 2.0
    end = curve[-1][1]
    assert end == pytest.approx(1.285983, rel=1e-3)
    assert end > curve[0][1]
    assert abs(end * 3.0 / 4.0 - 1.0) < 0.04


def test_recovered_curve_tracks_input_bremsstrahlung(brems_run, brems_theta):
    report = self_consistency(brems_run, brems_theta)
    assert report.passed
    assert report.max_rel_dev == pytest.approx(1.406314e-2, rel=1e-3)
    assert report.argmax_y == 2.0


def test_negative_control_fails(negctl_run):
    # same spectrum and grid, wrong temperature: the check must reject it
    report = self_consistency(negctl_run, RationalForm.constant(1))
    assert not report.passed
    assert report.max_rel_dev == pytest.approx(3.140548, rel=1e-3)


def test_perturbed_temperature_fails(mono_run, mono_theta):
    # a 10 percent offset in the driving curve must trip the 2 percent gate
    report = self_consistency(mono_run, lambda y: 1.1 * mono_theta(y))
    assert not report.passed
    assert report.max_rel_dev > 0.08


def test_one_nan_row_fails(brems_run, brems_theta):
    # every other row is within 1.5 percent, so the NaN row alone must
    # fail the check and be the reported worst
    y_bad = brems_run.grid.snapshot_times[3]
    report = self_consistency(brems_run, lambda y: float("nan") if y == y_bad else brems_theta(y))
    assert not report.passed
    assert math.isnan(report.max_rel_dev)
    assert report.argmax_y == y_bad
    assert sum(math.isnan(row[3]) for row in report.rows) == 1


def test_all_nan_rows_fail(brems_run):
    report = self_consistency(brems_run, lambda y: float("nan"))
    assert not report.passed
    assert math.isnan(report.max_rel_dev)
    assert report.argmax_y == brems_run.grid.snapshot_times[0]
    assert all(math.isnan(row[3]) for row in report.rows)


def test_solution_drifts_monoenergetic(mono_run):
    assert mono_run.number_drift <= 1e-12
    assert mono_run.energy_drift == pytest.approx(1.683595e-2, rel=1e-3)
    # the traces hold the initial state and one entry per accepted step
    assert len(mono_run.trace_y) - 1 == mono_run.stats["steps_accepted"]


def test_solution_drifts_bremsstrahlung(brems_run):
    assert brems_run.number_drift <= 1e-12
    assert brems_run.energy_drift == pytest.approx(1.623167e-2, rel=1e-3)
    assert len(brems_run.trace_y) - 1 == brems_run.stats["steps_accepted"]


def test_solution_drifts_wien(wien_run):
    assert wien_run.number_drift <= 1e-10
    assert wien_run.energy_drift <= 1e-10
    assert len(wien_run.trace_y) - 1 == wien_run.stats["steps_accepted"]


def test_free_free_cooling_is_monotone(brems_run):
    values = [v for _, v in output_temperature(brems_run)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.153297, rel=1e-3)


def test_trace_and_snapshot_quadrature_agree(mono_run):
    # the stored snapshots must be the very states the traces were
    # computed from, not interpolants
    for t, F in mono_run.snapshots:
        idx = int(np.argmin(np.abs(mono_run.trace_y - t)))
        assert abs(mono_run.trace_y[idx] - t) <= 1e-12
        q = float(np.sum(F * mono_run.grid.widths))
        assert q == pytest.approx(mono_run.trace_number[idx], rel=1e-12)


def test_report_serialization(tmp_path, mono_run, mono_theta):
    report = self_consistency(mono_run, mono_theta)
    jpath = tmp_path / "verify.json"
    write_json(report.to_json_dict(), jpath)
    data = json.loads(jpath.read_text())
    assert data["schema"] == "compfrac.verification/1"
    assert data["passed"] is True
    assert len(data["rows"]) == len(report.rows)

    cpath = tmp_path / "verify.csv"
    write_table(cpath, "y,theta_in,theta_out,rel_dev", report.rows)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "y,theta_in,theta_out,rel_dev"
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 1.0


def test_closure_has_no_value_at_bare_y(brems_run):
    # the closure's theta is a moment ratio of a solution, not a curve in y
    for call in (lambda: SELF_CONSISTENT(1.0), lambda: self_consistency(brems_run, SELF_CONSISTENT)):
        with pytest.raises(TypeError, match=r"self-consistent closure .*PdeSolution\.moment"):
            call()


def test_output_temperature_normalises_by_the_y0_state():
    # theta_out is I_alpha(y) / I_alpha(0): without the y = 0 state there is
    # no base, and the first stored snapshot (here y = 0.5) is not one
    def run(snapshots):
        grid = Grid.log_spaced(cells=60, snapshots=snapshots)
        return solve_transport(Bremsstrahlung(), RationalForm.constant(1.0), grid, rtol=1e-4)

    with pytest.raises(SnapshotMissing):
        output_temperature(run([0.5, 1.0, 2.0]))
    curve = dict(output_temperature(run([0.0, 0.5, 1.0, 2.0])))
    assert curve[0.0] == 1.0
    assert curve[0.5] == pytest.approx(1.206, abs=1e-3)
