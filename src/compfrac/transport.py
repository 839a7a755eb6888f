"""Finite-volume solver for the photon transport equation.

The equation for F(x, y) = x^i f(x, y) is kept in flux-conservation form

    dF/dy = d/dx [ W(x, y) F + C(x) dF/dx ],
    W = x^j / theta(y) - i x^(k-1),   C = x^k,

and discretized with cell-centered finite volumes on a logarithmic grid.
Interface fluxes use exponential fitting where the drift-to-diffusion
exponent is integrated exactly across the cell gap; that choice makes
point samples of the exponential equilibrium an exact discrete steady
state and, with zero-flux boundaries, conserves the photon number
integral to machine precision.  Stepping is TR-BDF2 (Bank et al. 1985,
IEEE Trans. Electron Devices 32): a trapezoidal stage to y + gamma h and
a BDF2 stage to y + h, each solving with an M-matrix I - d h A whose A
is assembled at that stage's own theta, with the embedded error
estimate of Hosea & Shampine (1996, Appl. Numer. Math. 20).  The
trapezoidal right-hand side is not positivity-preserving, so a step
that leaves the positive cone is retried at half the width.
theta is prescribed as a function of y or, for Comptonization, is the
closure theta = I_4(F)/(4 I_3(F)) of the solution itself, iterated to a
fixed point inside each implicit stage as in an index-1 DAE.
"""

from __future__ import annotations

import bisect
import ctypes
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from time import perf_counter
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .contfrac import (
    ContinuedFraction, PoleHit, RationalForm, find_defects, taylor_form, to_rational,
)
from .moments import DerivativeTable
from .spectra import (
    COMPTONIZATION,
    GaussianPulse,
    Monoenergetic,
    NumericalFailure,
    TransportParams,
    UnsupportedParams,
)


# dgtsv as numpy's bundled scipy-openblas64 exports it: prefix scipy_, and
# suffix 64_ for the ILP64 interface, whose integers are 64-bit
_NUMPY_DGTSV = "scipy_dgtsv_64_"


def _find_numpy_dgtsv():
    """LAPACK dgtsv from the OpenBLAS numpy has already loaded, or None.

    dlsym on the handle of numpy.linalg._umath_linalg also searches the
    libraries that module links, so the routine is found without naming
    a library file.  All eight arguments are passed by reference:
    N, NRHS, DL, D, DU, B, LDB, INFO.  A numpy built against MKL or a
    system LAPACK exports no such symbol, and then None is returned.
    """
    try:
        routine = ctypes.CDLL(_umath_linalg.__file__)[_NUMPY_DGTSV]
    except AttributeError:
        return None
    routine.argtypes = (ctypes.c_void_p,) * 8
    routine.restype = None
    return routine


# scipy's LAPACK, with its own second OpenBLAS and the import of
# scipy.linalg (about 0.3 s), is loaded only where numpy's exports no dgtsv
_numpy_gtsv = _find_numpy_dgtsv()
if _numpy_gtsv is None:
    from scipy.linalg.lapack import dgtsv
else:
    dgtsv = None


class NonPositiveTemperature(NumericalFailure, ValueError):
    """theta(y) must stay strictly positive over the whole run."""


class PositivityViolation(NumericalFailure, ArithmeticError):
    """The solution went negative beyond the clipping tolerance at every
    step width down to the smallest allowed."""


class StepSizeUnderflow(NumericalFailure, ArithmeticError):
    """Adaptive stepping could not meet the error target."""


class SnapshotMissing(NumericalFailure, KeyError):
    """No stored snapshot at the requested y."""


class NonFiniteState(NumericalFailure, ArithmeticError):
    """A cell center or initial value off the floats, an initial condition
    with no photons on the grid, a NaN step or a singular step matrix."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered log grid in x plus the y span and snapshot times, which
    lie in [0, y_end] exactly; every check refuses a NaN edge or time."""

    edges: tuple
    y_end: float
    snapshot_times: tuple

    def __post_init__(self):
        edges = tuple(float(v) for v in self.edges)
        if len(edges) < 3:
            raise ValueError("grid needs at least two cells")
        if not edges[0] > 0:
            raise ValueError("x_min must be positive")
        if any(not a < b for a, b in zip(edges, edges[1:])):
            raise ValueError("grid edges must increase strictly")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if any(not a < b for a, b in zip(snaps, snaps[1:])):
            raise ValueError("snapshot times must increase strictly")
        if not (math.isfinite(self.y_end) and self.y_end > 0):
            raise ValueError("y_end must be positive and finite")
        if snaps and not (0 <= snaps[0] and snaps[-1] <= self.y_end):
            raise ValueError("snapshot times must lie within [0, y_end]")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "snapshot_times", snaps)

    @classmethod
    def log_spaced(
        cls,
        cells: int = 400,
        x_min: float = 1e-3,
        x_max: float = 50.0,
        y_end: float = 2.0,
        snapshots: Sequence[float] | int = 21,
    ) -> "Grid":
        edges = np.geomspace(x_min, x_max, cells + 1)
        if isinstance(snapshots, int):
            snaps = np.linspace(0.0, y_end, snapshots)
        else:
            snaps = np.asarray(sorted(float(t) for t in snapshots))
        return cls(edges=tuple(edges), y_end=float(y_end), snapshot_times=tuple(snaps))

    @property
    def cells(self) -> int:
        return len(self.edges) - 1

    # derived arrays, built on first use; not fields, so equality, hashing
    # and the JSON form still see only the edges tuple
    @cached_property
    def centers(self) -> np.ndarray:
        """Geometric cell centers (read-only), each a positive float."""
        e = np.asarray(self.edges)
        with np.errstate(over="ignore", under="ignore"):
            centers = np.sqrt(e[:-1] * e[1:])
        m = int(np.argmin((centers > 0.0) & (centers < math.inf)))  # the first bad cell, or 0
        if not 0.0 < centers[m] < math.inf:
            raise NonFiniteState(f"grid cell {m} has center sqrt({e[m]:.6g} * {e[m + 1]:.6g}) "
                                 f"= {float(centers[m])} in floats")
        centers.flags.writeable = False
        return centers

    @cached_property
    def widths(self) -> np.ndarray:
        """Cell widths (read-only)."""
        widths = np.diff(self.edges)
        widths.flags.writeable = False
        return widths

    @cached_property
    def _powers(self) -> dict:
        return {}

    def center_power(self, e) -> np.ndarray:
        """x^e at the cell centers (read-only), built once per float(e), for
        every reader: moments, conservation traces, initial values, spectra."""
        e = float(e)
        power = self._powers.get(e)
        if power is None:
            power = self._powers[e] = self.centers ** e
            power.flags.writeable = False
        return power

    def to_json_dict(self) -> dict:
        return {
            "cells": self.cells,
            "x_min": self.edges[0],
            "x_max": self.edges[-1],
            "y_end": self.y_end,
            "snapshot_times": list(self.snapshot_times),
        }


@dataclass(frozen=True)
class TemperatureFn:
    """theta(y) as a plain callable plus a provenance description; the
    ``selfconsistent`` kind (fn None) is the closure I_4(F)/(4 I_3(F)).
    ``fn`` takes a float y.  A fraction level's, Taylor level's or
    constant's ``fn`` is a contfrac.RationalForm, the one prescribed kind
    solve_transport accepts, since find_defects certifies its integers."""

    fn: Callable[[float], float] | None
    description: str

    def __call__(self, y: float) -> float:
        if self.fn is None:
            raise TypeError(
                f"the {self.description} has no value at a bare y; read "
                "I_4/(4 I_3) of a solution's snapshot with PdeSolution.moment"
            )
        return float(self.fn(y))

    @classmethod
    def from_continued_fraction(cls, cf: ContinuedFraction, level: int) -> "TemperatureFn":
        return cls(to_rational(cf, level), f"continued fraction, level {level} ({cf.source})")

    @classmethod
    def from_table(cls, table: DerivativeTable, level: int) -> "TemperatureFn":
        description = f"Taylor partial sum, level {level} ({table.spectrum})"
        return cls(taylor_form(table, level), description)

    @classmethod
    def constant(cls, value) -> "TemperatureFn":
        """The [0/0] form n/d of float(value): (0 y + n/d) / 1.0 is the value."""
        v = float(value)
        n, d = v.as_integer_ratio()
        return cls(RationalForm((n,), (d,)), f"constant {v:.6g}")

    @classmethod
    def selfconsistent(cls) -> "TemperatureFn":
        return cls(fn=None, description="self-consistent closure I_4/(4 I_3)")


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """Snapshots of F on the grid plus per-step conservation traces."""

    grid: Grid
    params: TransportParams
    theta_description: str
    snapshots: tuple  # ((y, F array), ...) in y order
    trace_y: np.ndarray
    trace_number: np.ndarray
    trace_energy: np.ndarray
    stats: dict

    @property
    def number_drift(self) -> float:
        """Worst relative drift of the photon number over all accepted steps."""
        n = self.trace_number
        return float(np.max(np.abs(n / n[0] - 1.0)))

    @property
    def energy_drift(self) -> float:
        """Worst relative drift of the energy moment over all accepted steps."""
        e = self.trace_energy
        return float(np.max(np.abs(e / e[0] - 1.0)))

    @cached_property
    def _times(self) -> list:
        return [t for t, _ in self.snapshots]

    def snapshot(self, y: float) -> np.ndarray:
        """The stored state nearest y (the earlier one on a tie), within
        1e-9 max(1, |y|); snapshots may lie closer together than that (down
        to the solver's step floor)."""
        times = self._times
        k = bisect.bisect_left(times, y)  # times[k - 1] < y <= times[k]
        if k == len(times) or (k and y - times[k - 1] <= times[k] - y):
            k -= 1
        t, F = self.snapshots[k]
        if abs(t - y) <= 1e-9 * max(1.0, abs(y)):
            return F
        raise SnapshotMissing(f"no snapshot at y = {y}; stored: {times}")

    def photon_spectrum(self, y: float) -> np.ndarray:
        """f(x, y) = F / x^i at the cell centers."""
        return self.snapshot(y) / self.grid.center_power(self.params.i)

    def energy_spectrum(self, y: float) -> np.ndarray:
        """G(x, y) = x^3 f = x^(3-i) F at the cell centers, summed by grid_moment(..., 3, ...)."""
        return self.snapshot(y) * self.grid.center_power(3 - self.params.i)

    @cached_property
    def _csv_template(self) -> str:
        """The rows of a snapshot file with the x column formatted in and
        %-fields left for F, f and G."""
        row = "%.12e,%%.12e,%%.12e,%%.12e\n"
        return (row * self.grid.cells) % tuple(self.grid.centers.tolist())

    def snapshot_rows(self, y: float) -> str:
        """The snapshot's CSV rows x,F,f,G at %.12e, the x column formatted once per solution."""
        rows = np.column_stack((self.snapshot(y), self.photon_spectrum(y), self.energy_spectrum(y)))
        return self._csv_template % tuple(rows.ravel().tolist())

    def moment(self, n, y: float) -> float:
        return grid_moment(self.grid, self.snapshot(y), n, self.params)

    def to_json_dict(self) -> dict:
        """The run manifest, less the snapshot file names and write time."""
        return {
            "schema": "compfrac.run-manifest/1",
            "grid": self.grid.to_json_dict(),
            "params": self.params.describe(),
            "theta": self.theta_description,
            "stats": self.stats,
            "snapshots": [t for t, _ in self.snapshots],
            "conservation": {
                "y": [float(v) for v in self.trace_y],
                "number": [float(v) for v in self.trace_number],
                "energy": [float(v) for v in self.trace_energy],
            },
        }


def grid_moment(grid: Grid, F: np.ndarray, n, params: TransportParams) -> float:
    """I_n = integral x^n f dx = sum x_m^(n-i) F_m dx_m on cell centers.

    The weight x^(n-i) is the grid's one table, ``Grid.center_power``, which
    the conservation traces and spectrum views read too, so moment checks
    downstream see exactly the quantities the scheme conserves.
    """
    return float((grid.center_power(Fraction(n) - params.i) * F * grid.widths).sum())


def initial_cell_values(
    spectrum, grid: Grid, params: TransportParams
) -> tuple[np.ndarray, object]:
    """Point samples of F = x^i f0 at cell centers.

    A monoenergetic line is replaced by the narrow gaussian pulse of
    default variance carrying the same number density at the same energy;
    the replacement is returned alongside the samples.
    """
    actual = spectrum
    if isinstance(spectrum, Monoenergetic):
        actual = GaussianPulse(mean=spectrum.x0, n0=spectrum.n0)
    x = grid.centers
    with np.errstate(all="ignore"):
        F = grid.center_power(params.i) * actual.profile(x)
    m = int(np.argmin(np.isfinite(F)))  # the first bad cell, or 0
    if not np.isfinite(F[m]):
        raise NonFiniteState(f"initial condition is {F[m]} at x = {x[m]:.6g} (cell {m})")
    if np.any(F < 0):
        raise ValueError("initial condition must be non-negative on the grid")
    return F, actual


def _lambda_minus(w: np.ndarray) -> np.ndarray:
    """w / (e^w - 1), stable over the full real line."""
    aw = np.abs(w)
    if aw.min() >= 1e-8 and aw.max() <= 500.0:
        return w / np.expm1(w)
    out = np.empty_like(w)
    tiny = aw < 1e-8
    big = w > 500.0
    neg = w < -500.0
    rest = ~(tiny | big | neg)
    wt = w[tiny]
    out[tiny] = 1.0 - wt / 2.0 + wt * wt / 12.0
    out[big] = w[big] * np.exp(-w[big])
    out[neg] = -w[neg]
    out[rest] = w[rest] / np.expm1(w[rest])
    return out


class _Operator:
    """Tridiagonal rate matrix dF/dy = A F of one grid, and its implicit solve.

    Every term that depends only on the grid and the parameters is
    computed once here; ``assemble`` evaluates the theta-dependent rest.
    Each floating-point expression keeps the operation order of a
    from-scratch assembly, so the bands are bit-identical to it.  Every
    implicit solve is one call, ``solve(bands, dy, rhs)``, which writes
    I - dy A into the LAPACK work arrays and leaves the bands intact, so
    the bands of one assembly serve any number of solves.  The counters
    record the work done.
    """

    def __init__(self, grid: Grid, params: TransportParams):
        x = grid.centers
        lo, hi = x[:-1], x[1:]
        self.cells = n = grid.cells
        dx = grid.widths
        self.dx_lo, self.dx_hi = dx[:-1], dx[1:]
        # exact integral of W/C = x^(j-k)/theta - i/x between adjacent
        # centers: gap/(p theta) - i ln(hi/lo), where p = j - k + 1 and
        # gap = hi^p - lo^p, or p = 1 and gap = ln(hi/lo) when j - k + 1 = 0
        logratio = np.log(hi / lo)
        self.i_logratio = float(params.i) * logratio
        p = float(params.p)
        self.gap, self.p = (hi ** p - lo ** p, p) if p else (logratio, 1.0)
        xe = np.asarray(grid.edges[1:-1])  # interior interfaces
        self.g = xe ** float(params.k) / (hi - lo)  # conductance of each interface
        self.assemblies = 0
        self.linear_solves = 0
        # LAPACK work arrays: gtsv overwrites the bands (dl, d, du) with
        # their factors and b with the solution.  numpy's routine takes
        # every argument by address; the addresses are taken once, and the
        # arrays live as long as the operator.
        self._work = (np.empty(n - 1), np.empty(n), np.empty(n - 1))
        self._b = np.empty(n)
        self._info = np.zeros(1, dtype=np.int64)
        self._sizes = np.array([n, 1, n], dtype=np.int64)  # N, NRHS, LDB
        n_p, nrhs_p, ldb_p = (self._sizes.ctypes.data + 8 * i for i in range(3))
        self._gtsv_args = (
            n_p, nrhs_p, *(a.ctypes.data for a in (*self._work, self._b)),
            ldb_p, self._info.ctypes.data,
        )

    def assemble(self, theta_val: float):
        """(lower, diag, upper) of A at temperature theta_val.

        ``diag`` has one entry per cell; ``lower`` (row m + 1, column m)
        and ``upper`` (row m, column m + 1) have one per interface.
        """
        self.assemblies += 1
        w = self.gap / (self.p * theta_val) - self.i_logratio
        lam_m = _lambda_minus(w)
        lam_p = lam_m + w  # identity lambda_plus - lambda_minus = w
        # flux at interface m+1/2: g * (lam_p F_{m+1} - lam_m F_m)
        g_p = self.g * lam_p
        g_m = self.g * lam_m
        diag = np.zeros(self.cells)
        diag[:-1] -= g_m / self.dx_lo
        diag[1:] -= g_p / self.dx_hi
        return g_m / self.dx_hi, diag, g_p / self.dx_lo

    @staticmethod
    def apply(bands, F: np.ndarray) -> np.ndarray:
        """The rate A F for the bands of one assembly."""
        lower, diag, upper = bands
        AF = diag * F
        AF[:-1] += upper * F[1:]
        AF[1:] += lower * F[:-1]
        return AF

    def solve(self, bands, dy: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dy A) x = rhs with LAPACK gtsv into a fresh array.

        The M-matrix I - dy A of the bands of one assembly is written
        straight into the work arrays, which gtsv factors in place, so
        ``bands`` and ``rhs`` are left intact.
        """
        (lower, diag, upper), (dl, d, du) = bands, self._work
        np.multiply(lower, -dy, out=dl)
        np.subtract(1.0, np.multiply(diag, dy, out=d), out=d)
        np.multiply(upper, -dy, out=du)
        self.linear_solves += 1
        if _numpy_gtsv is None:
            _, _, _, x, info = dgtsv(
                *self._work, rhs, overwrite_dl=True, overwrite_d=True, overwrite_du=True
            )
        else:
            self._b[...] = rhs
            _numpy_gtsv(*self._gtsv_args)
            x, info = self._b.copy(), self._info[0]
        if info != 0:
            raise NonFiniteState(f"step matrix is singular (LAPACK gtsv info = {info})")
        return x


# TR-BDF2 with gamma = 2 - sqrt(2): both implicit stages share the
# diagonal d = gamma/2, and the BDF2 stage reads
# F_new = F + h (w k1 + w k2 + d k3) with w = sqrt(2)/4, where k1, k2, k3
# are the rates at y, y + gamma h and y + h
_GAMMA = 2.0 - math.sqrt(2.0)
_D = _GAMMA / 2.0
_W = math.sqrt(2.0) / 4.0
# local error of the embedded third-order formula (Hosea & Shampine 1996)
_E1 = (1.0 - 4.0 * _W) / 3.0
_E2 = 1.0 / 3.0
_E3 = -2.0 * _D / 3.0
# relative tolerance and solve cap of the closure iteration in a stage
_CLOSURE_RTOL = 1e-14
_CLOSURE_ITERATIONS = 12


class _ClosureUnsettled(ArithmeticError):
    """The closure iteration of a stage did not reach its fixed point."""


def step_floor(y_end: float) -> float:
    """The solver's step floor on [0, y_end]: a step it would have to take
    narrower than this raises StepSizeUnderflow or PositivityViolation."""
    return 1e-13 * max(1.0, y_end)


def _certify(theta: TemperatureFn, y_end: float) -> None:
    """Prove a prescribed theta finite and positive on [0, y_end] exactly:
    theta(0) = p[0]/q[0] > 0, no root of q (PoleHit) and none of p on (0, y_end]."""
    form = theta.fn
    if not isinstance(form, RationalForm):
        raise TypeError(f"a prescribed theta must be a contfrac.RationalForm: {theta.description}")
    if not form.p[0] * form.q[0] > 0:
        raise NonPositiveTemperature(f"{theta.description} is {form(0.0)!r} at y = 0")
    report = find_defects(form, y_end)
    if not report.is_empty():
        (y, m), defect = (report.poles[0], "pole") if report.poles else (report.zeros[0], "zero")
        message = f"{theta.description} has a {defect} of multiplicity {m} at y = {y!r}"
        raise PoleHit(y, None, message) if report.poles else NonPositiveTemperature(message)


def solve_transport(
    spectrum,
    theta: TemperatureFn,
    grid: Grid,
    params: TransportParams = COMPTONIZATION,
    rtol: float = 1e-6,
    initial_dy: float = 1e-5,
    max_steps: int = 500_000,
) -> PdeSolution:
    """Integrate the transport equation over [0, y_end].

    Each attempted step of width h takes a trapezoidal stage to
    y + gamma h and a BDF2 stage to y + h, each one ``solve`` of
    I - d h A at that stage's assembly; a third solve at the BDF2 stage's
    bands filters the embedded error estimate h (e1 k1 + e2 k2 + e3 k3), and
    the step width follows it with exponent -1/3.  The rate at the end
    of an accepted step is the next step's k1, so an attempt costs two
    assemblies and three solves.  An attempt whose stage or result dips
    below the clipping tolerance is rejected and retried at half the
    width; smaller negative values are clipped to zero and counted, and
    the step is rescaled to keep its photon number.  A step that would
    pass the next snapshot time or y_end sets y to it exactly, so the
    driver is read only on [0, y_end].  ``stats["wall_s"]`` is the time
    spent in the stepping loop.

    ``TemperatureFn.selfconsistent()`` (Comptonization only) re-solves
    each stage at theta = I_4/(4 I_3) of its last solution until theta
    moves by under _CLOSURE_RTOL, and the converged BDF2 bands filter
    the estimate; an attempt with a stage unsettled after
    _CLOSURE_ITERATIONS solves is rejected and retried at half the width.
    A closure value that is not positive and finite raises
    NonPositiveTemperature.

    A prescribed theta must be a contfrac.RationalForm, and _certify
    proves it finite and positive on [0, y_end] before any step.
    """
    min_dy = step_floor(grid.y_end)
    if grid.y_end < min_dy:
        raise ValueError(f"y_end = {grid.y_end!r} is below the step floor {min_dy:g}: no step to take")
    closure = theta.fn is None
    if not closure:
        _certify(theta, grid.y_end)
    elif params != COMPTONIZATION:
        raise UnsupportedParams(f"the closure needs Comptonization, not {params.describe()}")
    F, actual_spectrum = initial_cell_values(spectrum, grid, params)
    dx = grid.widths
    op = _Operator(grid, params)
    y = 0.0

    def closure_theta(G):
        i3 = grid_moment(grid, G, 3, params)
        value = grid_moment(grid, G, 4, params) / (4.0 * i3) if i3 else math.nan
        if not (math.isfinite(value) and value > 0):
            raise NonPositiveTemperature(
                f"closure theta = I_4/(4 I_3) = {value!r} near y = {y:.6g}"
            )
        return value

    def stage(rhs, dh, th):
        """(G, th, bands) of the stage (I - dh A(th)) G = rhs.  The closure
        re-solves at th = closure_theta(G) until th is a fixed point."""
        for _ in range(_CLOSURE_ITERATIONS):
            bands = op.assemble(th)
            G = op.solve(bands, dh, rhs)
            if not closure:
                return G, th, bands
            th_next = closure_theta(G)
            if abs(th_next - th) < _CLOSURE_RTOL * th:
                return G, th, bands
            th = th_next
        raise _ClosureUnsettled

    th = closure_theta(F) if closure else theta(0.0)
    k1 = op.apply(op.assemble(th), F)

    energy_weight = grid.center_power(3 - params.i)  # of grid_moment(..., 3, ...)
    trace_y = [0.0]
    trace_number = [float((F * dx).sum())]
    trace_energy = [float((energy_weight * F * dx).sum())]
    if not trace_number[0] > 0:  # a closure run has refused it already: I_3 = 0
        x_range = f"[{grid.edges[0]:.6g}, {grid.edges[-1]:.6g}]"
        raise NonFiniteState(f"initial condition has no photons on the grid x in {x_range}")
    atol = 1e-3 * rtol * float(F.max())
    dy = float(initial_dy)

    pending = list(grid.snapshot_times)
    snaps: list = []
    if pending and pending[0] == 0.0:
        snaps.append((pending.pop(0), F.copy()))

    accepted = rejected = rejected_negative = clipped = 0
    step_widths: list = []  # of the accepted steps

    def below_clip(G, low):
        # low is G.min(); max |G| is needed only when it is negative, and a
        # NaN minimum compares false either way
        return low < 0.0 and low < -1e-6 * float(np.abs(G).max())

    started = perf_counter()
    while y < grid.y_end:
        target = pending[0] if pending else grid.y_end
        landing = dy >= target - y
        dy_try = target - y if landing else dy
        y_new = target if landing else y + dy_try
        if dy_try < min_dy:
            raise StepSizeUnderflow(
                f"step fell to {dy_try:.3e} at y = {y:.6g} (limit {min_dy:.1e})"
            )

        dh = _D * dy_try
        try:
            # trapezoidal stage to y + gamma h
            th_tr = th if closure else theta(y + _GAMMA * dy_try)
            F_tr, th_tr, _ = stage(F + dh * k1, dh, th_tr)
            k2 = (F_tr - F) / dh - k1
            # BDF2 stage to y + h; its bands also filter the error estimate
            rhs = F + (_W * dy_try) * (k1 + k2)
            th_new = th_tr if closure else theta(y_new)
            F_new, th_new, bands = stage(rhs, dh, th_new)
        except _ClosureUnsettled:
            rejected += 1
            dy = max(dy_try * 0.5, min_dy / 2)
            continue
        k3 = (F_new - rhs) / dh
        est = op.solve(bands, dh, dy_try * (_E1 * k1 + _E2 * k2 + _E3 * k3))

        err = float((np.abs(est) / (atol + rtol * np.abs(F_new))).max())
        if not math.isfinite(err):
            # a NaN norm would compare as an accepted step; it also means
            # F_new holds no NaN past this point
            raise NonFiniteState(f"step error norm is {err} at y = {y:.6g}")
        factor = 4.0 if err == 0.0 else min(4.0, max(0.25, 0.9 * err ** (-1.0 / 3.0)))

        low_new = float(F_new.min())
        negative = below_clip(F_tr, float(F_tr.min())) or below_clip(F_new, low_new)
        if negative or err > 1.0:
            rejected += 1
            shrink = factor if err > 1.0 else 1.0
            if negative:
                rejected_negative += 1
                shrink = min(shrink, 0.5)
                if dy_try * shrink < min_dy:
                    raise PositivityViolation(
                        f"solution dips below zero at y = {y:.6g} even at step {dy_try:.3e}"
                    )
            dy = max(dy_try * shrink, min_dy / 2)
            continue

        y = y_new
        if low_new < 0.0:
            # zeroing the negative cells adds photons; scale the rest back
            # so the clipped step keeps the number integral it had
            neg = F_new < 0
            clipped += int(np.count_nonzero(neg))
            number = float((F_new * dx).sum())
            F_new = np.where(neg, 0.0, F_new)
            F_new *= number / float((F_new * dx).sum())
            k3 = op.apply(bands, F_new)
        F, k1, th = F_new, k3, th_new
        accepted += 1
        step_widths.append(dy_try)

        trace_y.append(y)
        trace_number.append(float((F * dx).sum()))
        trace_energy.append(float((energy_weight * F * dx).sum()))

        if pending and y == pending[0]:
            snaps.append((pending.pop(0), F.copy()))

        if accepted + rejected > max_steps:
            raise StepSizeUnderflow(f"exceeded {max_steps} steps at y = {y:.6g}")

        dy = dy_try * factor
    wall_s = perf_counter() - started

    decades = Counter(math.floor(math.log10(h)) for h in step_widths)
    stats = {
        "method": "tr-bdf2",
        "steps_accepted": accepted,
        "steps_rejected": rejected,
        "steps_rejected_negative": rejected_negative,
        "cells_clipped": clipped,
        "assemblies": op.assemblies,
        "linear_solves": op.linear_solves,
        "dy_min": min(step_widths, default=0.0),
        "dy_max": max(step_widths, default=0.0),
        # [10^e, accepted steps with 10^e <= dy < 10^(e+1)], ascending
        "dy_histogram": [[float(f"1e{e}"), n] for e, n in sorted(decades.items())],
        "rtol": rtol,
        "spectrum": actual_spectrum.describe(),
        # seconds in the stepping loop; reaches the run manifest only
        "wall_s": wall_s,
    }
    return PdeSolution(
        grid=grid,
        params=params,
        theta_description=theta.description,
        snapshots=tuple(snaps),
        trace_y=np.asarray(trace_y),
        trace_number=np.asarray(trace_number),
        trace_energy=np.asarray(trace_energy),
        stats=stats,
    )
