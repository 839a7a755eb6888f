"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Each test prints a single pass/fail line with the measured quantity and
the pinned tolerance, and asserts that same condition.  The reference
listing embedded below gives theta^(n)(0) and c_n for both scenario
spectra to three significant figures.  The two exact rational routes
and the series-jet oracle in test_moments agree with each other to all
digits, so where the listing's deep rows disagree with the computed
values the listing itself is suspect; the comparisons are still run
verbatim and the disagreements reported, not patched around.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import FD_SET, UNIFORM21
from compfrac.contfrac import (
    RationalForm,
    cf_eval_exact,
    find_defects,
    taylor_eval,
    to_rational,
)
from compfrac.moments import (
    theta_derivatives_comptonization,
    theta_derivatives_general,
)
from compfrac.spectra import COMPTONIZATION, Bremsstrahlung, Monoenergetic
from compfrac.transport import grid_moment
from compfrac.verify import self_consistency

# Reference listing, 3 significant figures per entry.
MONO_THETA_REF = (
    1.00e0, 2.00e0, -1.20e1, 8.00e0, 1.87e3, -2.99e4, -6.85e5, 4.07e7,
    3.65e8, -9.25e10, 3.42e11, 3.56e14, -6.36e15, -2.20e18, 7.14e19,
    2.10e22, -9.31e23, -2.96e26, 1.48e28, 5.90e30, -2.70e32, -1.60e35,
    4.98e36, 5.87e39, 9.03e40,
)
BREMS_THETA_REF = (
    1.00e0, -6.00e0, 1.32e2, -6.36e3, 5.29e5, -6.68e7, 1.18e10, -2.76e12,
    8.24e14, -3.04e17, 1.36e20, -7.19e22, 4.47e25, -3.22e28, 2.66e31,
    -2.49e34, 2.64e37, -3.13e40, 4.13e43, -6.04e46, 9.73e49, -1.72e53,
    3.32e56, -6.99e59, 1.59e63,
)
MONO_C_REF = (
    1.00, -2.00, 5.00, -1.67, 3.59, -2.56, 4.69, -3.56, 4.13, -3.33,
    5.03, -4.77, 4.53, -4.30, 5.17, -5.67, 4.97, -5.33, 5.20, -6.36,
    6.06, -10.63, -7.69, -32.83, 23.42,
)
BREMS_C_REF = (
    1.00, 6.00, 5.00, 11.13, 8.99, 15.43, 12.28, 19.62, 15.72, 23.44,
    19.48, 26.87, 23.51, 30.09, 27.62, 33.35, 31.59, 36.81, 35.34,
    40.52, 38.88, 44.40, 42.26, 48.45, 45.34,
)

THETA_EQ = Fraction(4, 3)


def sig3(value: float) -> str:
    """Common 3-significant-figure rendering for comparisons."""
    return f"{value:.2e}"


def _line(num: int, ok: bool, detail: str) -> str:
    message = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(message)
    return message


def _mismatches(computed, reference):
    return [
        (n, sig3(float(c)), sig3(float(r)))
        for n, (c, r) in enumerate(zip(computed, reference))
        if sig3(float(c)) != sig3(float(r))
    ]


def test_criterion_01_derivative_tables(mono_table, brems_table):
    t0 = time.perf_counter()
    fresh_mono = theta_derivatives_comptonization(Monoenergetic(), 24)
    fresh_brems = theta_derivatives_comptonization(Bremsstrahlung(), 24)
    elapsed = time.perf_counter() - t0
    assert fresh_mono.values == mono_table.values
    assert fresh_brems.values == brems_table.values

    assert mono_table[1] == Fraction(2)
    assert brems_table[1] == Fraction(-6)
    assert brems_table[2] == Fraction(132)

    bad = [("mono", *m) for m in _mismatches(mono_table.values, MONO_THETA_REF)]
    bad += [("brems", *m) for m in _mismatches(brems_table.values, BREMS_THETA_REF)]
    ok = not bad and elapsed < 120.0
    message = _line(
        1,
        ok,
        f"{len(bad)} of 50 derivative entries disagree at 3 s.f. "
        f"{bad if bad else ''}; both tables built in {elapsed:.1f}s (budget 120s)",
    )
    assert elapsed < 120.0, message
    assert not bad, message


def test_criterion_02_fraction_coefficients(mono_cf, brems_cf):
    assert mono_cf[2] == Fraction(5)
    assert brems_cf[2] == Fraction(5)
    bad = [("mono", *m) for m in _mismatches(mono_cf.coefficients, MONO_C_REF)]
    bad += [("brems", *m) for m in _mismatches(brems_cf.coefficients, BREMS_C_REF)]
    message = _line(
        2,
        not bad,
        f"{len(bad)} of 50 coefficient entries disagree at 3 s.f. "
        f"{bad if bad else ''}",
    )
    assert not bad, message


def test_criterion_03_route_equivalence(mono_table, brems_table):
    agree = True
    for spectrum, table in (
        (Monoenergetic(), mono_table),
        (Bremsstrahlung(), brems_table),
    ):
        direct = theta_derivatives_general(COMPTONIZATION, spectrum, 12)
        agree = agree and direct.values == table.values[:13]
    message = _line(
        3,
        agree,
        "the closure and ratio theta rules, on one shared jet engine, agree"
        " exactly through order 12 on both spectra",
    )
    assert agree, message


def test_criterion_04_series_divergence(mono_table):
    inside = taylor_eval(mono_table, 24, 0.1)
    outside = taylor_eval(mono_table, 24, 0.3)
    ok = abs(outside) > 10.0 and 1.0 <= inside <= 1.5
    message = _line(
        4,
        ok,
        f"order-24 partial sum: {inside:.6g} at y=0.1 (gate [1.0, 1.5]), "
        f"{outside:.6g} at y=0.3 (gate |value| > 10)",
    )
    assert ok, message


def test_criterion_05_positive_coefficients_no_defects(brems_cf):
    positive = all(c > 0 for c in brems_cf.coefficients)
    dirty = [
        level
        for level in range(25)
        if not find_defects(to_rational(brems_cf, level), 2.0).is_empty()
    ]
    ok = positive and not dirty
    message = _line(
        5,
        ok,
        f"free-free coefficients all positive: {positive}; "
        f"levels with defects on (0, 2]: {dirty or 'none'}",
    )
    assert ok, message


def test_criterion_06_pulse_defect_pattern(mono_cf):
    dirty_odd = [
        level
        for level in range(1, 24, 2)
        if not find_defects(to_rational(mono_cf, level), 2.0).is_empty()
    ]
    clean_even = [
        level
        for level in (18, 20, 22, 24)
        if find_defects(to_rational(mono_cf, level), 2.0).is_empty()
    ]
    ok = bool(dirty_odd) and clean_even == [18, 20, 22, 24]
    message = _line(
        6,
        ok,
        f"odd levels with defects: {dirty_odd}; "
        f"levels 18, 20, 22, 24 clean: {clean_even == [18, 20, 22, 24]}",
    )
    assert ok, message


def test_criterion_07_asymptote(mono_cf):
    tail = cf_eval_exact(mono_cf, 24, Fraction(2))
    dev = abs(tail - THETA_EQ) / THETA_EQ
    ok = dev <= Fraction(1, 50)
    message = _line(
        7,
        ok,
        f"level-24 value at y=2 is {float(tail):.8f}, "
        f"{float(dev):.4%} from the equilibrium 4/3 (gate 2%)",
    )
    assert ok, message


def test_criterion_08_equilibrium_fixed_point(wien_run):
    F0 = wien_run.snapshot(0.0)
    scale = float(np.max(np.abs(F0)))
    worst = max(
        float(np.max(np.abs(F - F0))) / scale for _, F in wien_run.snapshots
    )
    ok = worst <= 1e-4
    message = _line(
        8, ok, f"max relative change over [0, 2] is {worst:.3e} (gate 1e-4)"
    )
    assert ok, message


def test_criterion_09_relaxation_toward_equilibrium(mono_run):
    x = mono_run.grid.centers
    dx = mono_run.grid.widths
    G_end = mono_run.energy_spectrum(2.0)
    # equilibrium exponential profile carrying the same energy (I_3 = 4)
    G_eq = (27.0 / 128.0) * x**3 * np.exp(-0.75 * x)
    l1 = float(np.sum(np.abs(G_end - G_eq) * dx)) / 4.0
    worst_energy = max(
        abs(grid_moment(mono_run.grid, F, 3, COMPTONIZATION) - 4.0) / 4.0
        for _, F in mono_run.snapshots
    )
    ok = l1 <= 0.02 and worst_energy <= 0.005
    message = _line(
        9,
        ok,
        f"L1 distance to the equilibrium energy spectrum at y=2 is {l1:.4%} "
        f"(gate 2%); worst energy-moment deviation {worst_energy:.4%} (gate 0.5%)",
    )
    assert ok, message


def test_criterion_10_self_consistency(
    mono_run, mono_theta, brems_run, brems_theta, negctl_run
):
    uniform = set(UNIFORM21)

    def max_dev_21(report):
        rows = [r for r in report.rows if r[0] in uniform]
        assert len(rows) == 21
        return max(r[3] for r in rows)

    mono_dev = max_dev_21(self_consistency(mono_run, mono_theta))
    brems_dev = max_dev_21(self_consistency(brems_run, brems_theta))
    negctl_dev = max_dev_21(self_consistency(negctl_run, RationalForm.constant(1)))
    ok = mono_dev <= 0.02 and brems_dev <= 0.02 and negctl_dev > 0.02
    message = _line(
        10,
        ok,
        f"max deviation over 21 snapshots: pulse {mono_dev:.4%}, "
        f"free-free {brems_dev:.4%} (gate 2%); "
        f"flat-temperature control {negctl_dev:.4%} (must exceed 2%)",
    )
    assert ok, message


def _moment_residuals(run, theta_fn):
    """Sup-norm mismatch between differenced moments and the hierarchy."""
    times = list(run.grid.snapshot_times)
    I = {
        n: np.array(
            [grid_moment(run.grid, run.snapshot(t), n, COMPTONIZATION) for t in times]
        )
        for n in (3, 4, 5, 6)
    }
    out = {}
    for n in (3, 4, 5):
        fd = []
        rhs = []
        for k in range(1, len(times) - 1):
            h2 = times[k] - times[k - 1]
            h1 = times[k + 1] - times[k]
            fd.append(
                (
                    h2**2 * I[n][k + 1]
                    - h1**2 * I[n][k - 1]
                    + (h1**2 - h2**2) * I[n][k]
                )
                / (h1 * h2 * (h1 + h2))
            )
            theta = theta_fn(times[k])
            rhs.append((n - 2) * ((n + 1) * I[n][k] - I[n + 1][k] / theta))
        fd = np.asarray(fd)
        rhs = np.asarray(rhs)
        out[n] = float(np.max(np.abs(fd - rhs)) / np.max(np.abs(rhs)))
    return out


def test_criterion_11_moment_hierarchy(
    mono_fd_run, mono_theta, brems_fd_run, brems_theta
):
    assert tuple(mono_fd_run.grid.snapshot_times) == FD_SET
    mono_res = _moment_residuals(mono_fd_run, mono_theta)
    brems_res = _moment_residuals(brems_fd_run, brems_theta)
    ok = all(v <= 0.03 for v in mono_res.values()) and all(
        v <= 0.03 for v in brems_res.values()
    )
    message = _line(
        11,
        ok,
        "sup-norm residuals (gate 3%): pulse "
        + ", ".join(f"n={n}: {v:.3%}" for n, v in mono_res.items())
        + "; free-free "
        + ", ".join(f"n={n}: {v:.3%}" for n, v in brems_res.items()),
    )
    assert ok, message
