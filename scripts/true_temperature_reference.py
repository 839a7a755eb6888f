#!/usr/bin/env python3
"""Self-consistent reference temperature, independent of the series data.

Instead of driving the solve with a resummed approximant, the library's
TR-BDF2 solver enforces the defining closure theta = I_4(F) / (4 I_3(F))
within every implicit stage, which needs no derivative information at
all.  In the continuous moment hierarchy the closure keeps the energy
moment I_3 stationary; on the grid it does not quite, so each run prints
its photon-number and energy drifts next to its deviation.  (The closure
theta = I_4(F)/I_4(0) is useless numerically: it leaves I_3 with an
unstable fixed point, so any quadrature offset grows like e^{4y}.)  The
resulting theta_ref(y), normalized to theta_ref(0) = 1, is what the
resummed fraction is trying to be; comparing the two measures the
fraction's truncation error free of any feedback effects.

For the free-free profile the soft cutoff is swept toward zero: the
initial spectrum holds logarithmically divergent photon number near
x = 0, and the fraction, built from the exact moments of the untruncated
profile, answers for the infinite-reservoir problem.
"""

import argparse
import time

from compfrac.cli import Run, build_config
from compfrac.transport import Grid, TemperatureFn, solve_transport
from compfrac.verify import conservation_report


def compare(name, spectrum, grid, theta_fn, rtol):
    t0 = time.perf_counter()
    sol = solve_transport(spectrum, TemperatureFn.selfconsistent(), grid, rtol=rtol)
    # theta_ref = I_4 / (4 I_3) of each snapshot, by the solver's own cell rule
    curve = [sol.moment(4, t) / (4.0 * sol.moment(3, t)) for t in grid.snapshot_times]
    rows = [(t, v / curve[0]) for t, v in zip(grid.snapshot_times, curve)]
    worst = max(abs(theta_fn(t) - v) / v for t, v in rows)
    cons = conservation_report(sol)
    print(f"{name}: max |approximant - reference| / reference = {worst:.3%}"
          f"  (number drift {cons.number_drift:.1e}, energy drift"
          f" {cons.energy_drift:.1e}; {time.perf_counter() - t0:.1f}s)")
    for t, v in rows:
        if t in (0.5, 1.0, 1.5, 2.0):
            print(f"   y={t:<4g} reference={v:.6f}  approximant={theta_fn(t):.5f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=24, help="derivative order M, 0..64")
    parser.add_argument("--rtol", type=float, default=1e-6)
    args = parser.parse_args()
    # (soft cutoff x_min, cells) per spectrum
    cutoffs = {
        "monoenergetic": [(1e-3, 400)],
        "bremsstrahlung": [(1e-3, 400), (1e-4, 500), (1e-5, 600), (1e-6, 700)],
    }
    for name, cases in cutoffs.items():
        # the approximant is the driver `compfrac solve --theta cf` picks on [0, 2]
        run = Run(build_config({"spectrum": name, "M": args.order}))
        for x_min, cells in cases:
            grid = Grid.log_spaced(cells=cells, x_min=x_min, snapshots=[0.0, 0.5, 1.0, 1.5, 2.0])
            compare(f"{name} [{x_min:.0e}, 50]", run.spectrum, grid, run.theta, args.rtol)
        print()


if __name__ == "__main__":
    main()
