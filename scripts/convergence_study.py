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

from compfrac.contfrac import cf_coefficients, select_approximant
from compfrac.moments import theta_derivatives_comptonization
from compfrac.spectra import Bremsstrahlung, Monoenergetic, equilibrium_temperature
from compfrac.transport import Grid, TemperatureFn, solve_transport
from compfrac.verify import conservation_report, self_consistency

CASES = {
    "monoenergetic": (
        Monoenergetic(),
        # (cells, x_min, rtol): the pulse has no soft tail, so only
        # mesh and step tolerance are worth sweeping
        [(200, 1e-3, 1e-6), (400, 1e-3, 1e-6), (800, 1e-3, 1e-6), (400, 1e-3, 1e-7)],
    ),
    "bremsstrahlung": (
        Bremsstrahlung(),
        [(400, 1e-3, 1e-6), (800, 1e-3, 1e-6), (400, 1e-3, 1e-7),
         (500, 1e-4, 1e-6), (600, 1e-5, 1e-6), (700, 1e-6, 1e-6)],
    ),
}


def run_case(spectrum, theta_fn, cells, x_min, rtol):
    grid = Grid.log_spaced(cells=cells, x_min=x_min, snapshots=21)
    sol = solve_transport(spectrum, theta_fn, grid, rtol=rtol)
    dev = self_consistency(sol, theta_fn).max_rel_dev
    drift = conservation_report(sol).energy_drift
    return dev, drift, sol.stats["steps_accepted"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=24)
    args = parser.parse_args()

    for name, (spectrum, sweeps) in CASES.items():
        cf = cf_coefficients(theta_derivatives_comptonization(spectrum, args.order))
        # the level `compfrac solve --theta cf` drives with on [0, 2]
        level = select_approximant(cf, 2.0, equilibrium_temperature(spectrum).value).level
        theta_fn = TemperatureFn.from_continued_fraction(cf, level)
        print(f"--- {name}: level-{level} fraction as driving temperature ---")
        print(f"{'cells':>6} {'x_min':>8} {'rtol':>8} {'selfcons':>10} {'I3 drift':>10} {'steps':>7}")
        for cells, x_min, rtol in sweeps:
            t0 = time.time()
            dev, drift, steps = run_case(spectrum, theta_fn, cells, x_min, rtol)
            print(
                f"{cells:>6} {x_min:>8.0e} {rtol:>8.0e} {dev:>10.3%} {drift:>10.3%}"
                f" {steps:>7}  ({time.time() - t0:.1f}s)"
            )
        print()


if __name__ == "__main__":
    main()
