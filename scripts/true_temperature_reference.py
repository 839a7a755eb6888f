#!/usr/bin/env python3
"""Self-consistent reference temperature, independent of the series data.

Instead of driving the solve with a resummed approximant, enforce the
defining closure directly: at every implicit step iterate the electron
temperature to the instantaneous equilibrium value

    theta = I_4(F) / (4 I_3(F)),

which keeps the energy moment exactly stationary and needs no initial
derivative information at all.  (The equivalent closure theta =
I_4(F)/I_4(0) is useless numerically: it leaves I_3 with an unstable
fixed point, so any quadrature offset in the energy moment grows like
e^{4y} and the run collapses.)  The resulting theta(y) is what the
resummed fraction is trying to be; comparing the two measures the
truncation error of the fraction free of any feedback effects.

For the free-free profile the comparison also needs the soft cutoff
swept toward zero: the initial spectrum holds logarithmically divergent
photon number near x = 0, and the fraction, built from the exact
moments of the untruncated profile, answers for the infinite-reservoir
problem.
"""

import argparse
import time

import numpy as np

from compfrac.contfrac import cf_coefficients
from compfrac.moments import theta_derivatives_comptonization
from compfrac.spectra import COMPTONIZATION, Bremsstrahlung, Monoenergetic
from compfrac.transport import (
    Grid,
    TemperatureFn,
    _Operator,
    initial_cell_values,
)


def solve_instantaneous_equilibrium(spectrum, grid, rtol=1e-6, dy0=1e-5):
    """Step-doubling implicit solve with the temperature iterated to
    theta = I4/(4 I3) within every sub-step; returns theta at the
    grid's snapshot times, normalized to theta(0) = 1."""
    F0, _ = initial_cell_values(spectrum, grid, COMPTONIZATION)
    Fv = F0.copy()
    x, dx = grid.centers, grid.widths
    op = _Operator(grid, COMPTONIZATION)

    def temp(Fz):
        return float(np.sum(x**2 * Fz * dx) / (4.0 * np.sum(x * Fz * dx)))

    theta = temp(Fv)
    base = theta
    atol = 1e-3 * rtol * float(np.max(Fv))
    y, dy = 0.0, dy0
    out = {0.0: 1.0}
    pending = [t for t in grid.snapshot_times if t > 0]

    def step(Fin, width, th):
        for _ in range(12):
            Fn = op.step(Fin, op.assemble(th), width)
            th_new = temp(Fn)
            if abs(th_new - th) < 1e-14 * th:
                break
            th = th_new
        return Fn, th

    while y < grid.y_end - 1e-14:
        target = pending[0] if pending else grid.y_end
        width = min(dy, target - y)
        F_full, _ = step(Fv, width, theta)
        F_half, th_half = step(Fv, width / 2, theta)
        F_two, th_two = step(F_half, width / 2, th_half)
        err = float(np.max(np.abs(F_full - F_two) / (atol + rtol * np.abs(F_two))))
        if err > 1.0:
            dy = width * max(0.25, 0.9 / err**0.5)
            continue
        y += width
        Fv, theta = F_two, th_two
        if pending and abs(y - pending[0]) <= 1e-12:
            out[pending.pop(0)] = theta / base
        dy = width * min(4.0, max(0.25, 0.9 / err**0.5 if err else 4.0))
    return out


def compare(name, spectrum, grid, theta_fn, rtol):
    t0 = time.time()
    curve = solve_instantaneous_equilibrium(spectrum, grid, rtol=rtol)
    rows = sorted(curve.items())
    worst = max(abs(theta_fn(t) - v) / v for t, v in rows)
    print(f"{name}: max |approximant - reference| / reference = {worst:.3%}"
          f"  ({time.time() - t0:.0f}s)")
    for t, v in rows:
        if t in (0.5, 1.0, 1.5, 2.0):
            print(f"   y={t:<4g} reference={v:.5f}  approximant={theta_fn(t):.5f}")
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=24)
    parser.add_argument("--rtol", type=float, default=1e-6)
    args = parser.parse_args()
    snapshots = [0.0, 0.5, 1.0, 1.5, 2.0]

    mono_cf = cf_coefficients(theta_derivatives_comptonization(Monoenergetic(), args.order))
    mono_fn = TemperatureFn.from_continued_fraction(mono_cf, mono_cf.truncation)
    compare(
        "monoenergetic [1e-3, 50]",
        Monoenergetic(),
        Grid.log_spaced(snapshots=snapshots),
        mono_fn,
        args.rtol,
    )
    print()

    brems_cf = cf_coefficients(theta_derivatives_comptonization(Bremsstrahlung(), args.order))
    brems_fn = TemperatureFn.from_continued_fraction(brems_cf, brems_cf.truncation)
    for x_min, cells in ((1e-3, 400), (1e-4, 500), (1e-5, 600), (1e-6, 700)):
        compare(
            f"bremsstrahlung [{x_min:.0e}, 50]",
            Bremsstrahlung(),
            Grid.log_spaced(cells=cells, x_min=x_min, snapshots=snapshots),
            brems_fn,
            args.rtol,
        )


if __name__ == "__main__":
    main()
