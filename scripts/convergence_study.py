#!/usr/bin/env python3
"""Refinement study for the approximant-driven transport pipeline.

Sweeps mesh, step tolerance, and the soft-end cutoff, reporting the
energy-moment drift and the recovered-vs-driving temperature deviation
for both scenarios.  The deviations that stay put under refinement are
structural: they measure the approximant's own distance from the true
self-consistent temperature, not discretization error.  For the
free-free profile the soft cutoff is the controlling parameter, since
the initial spectrum carries logarithmically divergent photon number
toward x = 0 and truncating the reservoir starves the late-time flux.
"""

import argparse
import time

from compfrac.cli import Run, build_config
from compfrac.verify import conservation_report, self_consistency

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
        # each case drives with the level `compfrac solve --theta cf` picks on [0, 2]
        runs = [Run(build_config({"spectrum": name, "M": args.order, "grid_cells": cells,
                                  "grid_x_min": x_min, "rtol": rtol}))
                for cells, x_min, rtol in sweeps]
        print(f"--- {name}: level-{runs[0].selection.level} fraction as driving temperature ---")
        print(f"{'cells':>6} {'x_min':>8} {'rtol':>8} {'selfcons':>10} {'I3 drift':>10} {'steps':>7}")
        for run in runs:
            t0 = time.time()
            sol, config = run.solution, run.config
            dev = self_consistency(sol, run.theta).max_rel_dev
            drift = conservation_report(sol).energy_drift
            print(
                f"{config.grid_cells:>6} {config.grid_x_min:>8.0e} {config.rtol:>8.0e} {dev:>10.3%}"
                f" {drift:>10.3%} {sol.stats['steps_accepted']:>7}  ({time.time() - t0:.1f}s)"
            )
        print()


if __name__ == "__main__":
    main()
