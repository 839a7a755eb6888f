"""Closing the loop: does the solved spectrum reproduce its own input?

The temperature driving the transport solve is an approximant built
from initial derivative data alone.  Integrating the solved spectrum
gives a second, independent temperature curve; agreement between the
two is the consistency check on the whole pipeline.  The report also
copies the conservation drifts every PdeSolution carries, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .transport import PdeSolution, grid_moment

__all__ = [
    "VerificationReport",
    "output_temperature",
    "self_consistency",
]


def output_temperature(sol: PdeSolution) -> tuple:
    """Temperature curve recovered from the solution itself.

    theta_out(y) = I_alpha(y) / I_alpha(0), with the moment taken by the
    same cell rule that backs the solver's conservation traces, at every
    stored snapshot.  Raises SnapshotMissing if the y = 0 state is not stored.
    """
    alpha = sol.params.alpha
    base = grid_moment(sol.grid, sol.snapshot(0.0), alpha, sol.params)
    return tuple((float(y), grid_moment(sol.grid, F, alpha, sol.params) / base)
                 for y, F in sol.snapshots)


@dataclass(frozen=True)
class VerificationReport:
    """Snapshot-by-snapshot comparison of input and recovered temperature.

    rows hold (y, theta_in, theta_out, rel_dev) with rel_dev normalized
    by the input value.  theta_out(0) = 1 by construction, up to
    quadrature error in the base moment.
    """

    rows: tuple
    max_rel_dev: float
    argmax_y: float
    tolerance: float
    passed: bool
    number_drift: float
    energy_drift: float

    def to_json_dict(self) -> dict:
        return {"schema": "compfrac.verification/1", **asdict(self)}


def self_consistency(
    sol: PdeSolution, theta_fn, tolerance: float = 0.02
) -> VerificationReport:
    """Compare the recovered temperature against the driving one.

    Passes iff max_y |theta_out - theta_in| / theta_in <= tolerance.
    A deviation that is NaN counts as the worst: it is reported as
    max_rel_dev at the first y where it occurs, and the check fails.
    theta_fn must be the temperature the solver ran with, called as theta_fn(y);
    handing a different callable turns the report into a negative control.
    """
    rows = []
    worst = -1.0
    worst_y = 0.0
    for y, t_out in output_temperature(sol):
        t_in = theta_fn(y)
        dev = abs(t_out - t_in) / t_in
        rows.append((y, t_in, t_out, dev))
        # NaN compares false both ways, so `not dev <= worst` takes the
        # first NaN, and the guard keeps it against everything after
        if not dev <= worst and not math.isnan(worst):
            worst, worst_y = dev, y
    return VerificationReport(
        rows=tuple(rows),
        max_rel_dev=worst,
        argmax_y=worst_y,
        tolerance=tolerance,
        passed=worst <= tolerance,
        number_drift=sol.number_drift,
        energy_drift=sol.energy_drift,
    )
