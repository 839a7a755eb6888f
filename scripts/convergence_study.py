#!/usr/bin/env python3
"""Refinement study for the approximant-driven transport pipeline.

Sweeps mesh, step tolerance, and the soft-end cutoff, solving each case
twice on one grid.  The first solve is driven by the continued-fraction
level `compfrac solve --theta cf` picks: its row reports `verify`'s
recovered-vs-driving deviation, the energy-moment drift and the steps.
The second enforces the closure theta = I_4(F) / (4 I_3(F)) within every
implicit stage and needs no series data.  Its theta_ref(y), normalized to
theta_ref(0) = 1, is what the fraction is trying to be, so the signed
worst (theta_in - theta_ref) / theta_ref is the driver's own error, free
of feedback; `verify`'s deviation understates it.  On the grid the closure
does not keep I_3 quite stationary, so its drifts close the row.  For the
free-free profile the soft cutoff is the controlling parameter, since the
initial spectrum carries logarithmically divergent photon number toward
x = 0 and truncating the reservoir starves the late-time flux.
"""

import argparse
import time

from compfrac.cli import Run, build_config
from compfrac.transport import SELF_CONSISTENT, solve_transport
from compfrac.verify import self_consistency

# (cells, x_min, rtol) per case
CASES = {
    # the pulse has no soft tail, so only mesh and step tolerance are worth sweeping
    "monoenergetic": [(200, 1e-3, 1e-6), (400, 1e-3, 1e-6), (800, 1e-3, 1e-6), (400, 1e-3, 1e-7)],
    "bremsstrahlung": [(400, 1e-3, 1e-6), (800, 1e-3, 1e-6), (400, 1e-3, 1e-7),
                       (500, 1e-4, 1e-6), (600, 1e-5, 1e-6), (700, 1e-6, 1e-6)],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=24, help="derivative order M, 0..64")
    args = parser.parse_args()

    for name, sweeps in CASES.items():
        runs = [Run(build_config({"spectrum": name, "M": args.order, "grid_cells": cells,
                                  "grid_x_min": x_min, "rtol": rtol}))
                for cells, x_min, rtol in sweeps]
        print(f"--- {name}: level-{runs[0].selection.level} fraction as driving temperature ---")
        print(f"{'cells':>6} {'x_min':>8} {'rtol':>8} {'selfcons':>10} {'I3 drift':>10} {'steps':>7}"
              f" {'ref(2)':>9} {'error':>8} {'ref I2 drift':>12} {'ref I3 drift':>12}")
        for run in runs:
            t0 = time.time()
            sol, config, theta = run.solution, run.config, run.theta
            dev = self_consistency(sol, theta).max_rel_dev
            ref = solve_transport(run.spectrum, SELF_CONSISTENT, sol.grid,
                                  rtol=config.rtol)
            # theta_ref = I_4 / (4 I_3) of each snapshot, by the solver's own cell rule
            curve = [ref.moment(4, y) / (4.0 * ref.moment(3, y)) for y in sol.grid.snapshot_times]
            rows = [(y, v / curve[0]) for y, v in zip(sol.grid.snapshot_times, curve)]
            error = max(((theta(y) - v) / v for y, v in rows), key=abs)
            print(
                f"{config.grid_cells:>6} {config.grid_x_min:>8.0e} {config.rtol:>8.0e} {dev:>10.3%}"
                f" {sol.energy_drift:>10.3%} {sol.stats['steps_accepted']:>7}"
                f" {rows[-1][1]:>9.6f} {error:>+8.3%}"
                f" {ref.number_drift:>12.1e} {ref.energy_drift:>12.1e}  ({time.time() - t0:.1f}s)"
            )
            for y, v in rows:
                if y in (0.5, 1.0, 1.5, 2.0):
                    print(f"   y={y:<4g} theta_ref={v:.6f}  theta_in={theta(y):.5f}")
        print()


if __name__ == "__main__":
    main()
