"""Finite-volume solver for the photon transport equation.

The equation for F(x, y) = x^i f(x, y) is kept in flux-conservation form

    dF/dy = d/dx [ W(x, y) F + C(x) dF/dx ],
    W = x^j / theta(y) - i x^(k-1),   C = x^k,

and discretized with cell-centered finite volumes on a logarithmic grid.
Interface fluxes use exponential fitting where the drift-to-diffusion
exponent is integrated exactly across the cell gap; that choice makes
point samples of the exponential equilibrium an exact discrete steady
state and, with zero-flux boundaries, conserves the photon number
integral to machine precision.  Stepping is the L-stable, stiffly
accurate ESDIRK4(3)6L[2]SA of Kennedy & Carpenter (2003, Appl. Numer.
Math. 44), of fourth order: five implicit stages, each one solving with
an M-matrix I - h/4 A whose A is assembled at that stage's own theta,
and an embedded third-order error estimator.  The explicit part of a
stage's right-hand side is not positivity-preserving, so any step that
leaves the positive cone is retried at half the width.
theta is prescribed as a form that certifies itself finite and positive
(a contfrac.RationalForm) or, for Comptonization, is the closure
theta = I_4(F)/(4 I_3(F)) of the solution itself (SELF_CONSISTENT),
iterated to a fixed point inside each implicit stage as in an index-1 DAE.
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
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .contfrac import NonPositiveTemperature
from .spectra import (
    COMPTONIZATION,
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


class _SelfConsistent:
    """The closure theta = I_4(F)/(4 I_3(F)) of the solution itself, which
    solve_transport iterates inside each stage; it has no value at a bare y."""

    description = "self-consistent closure I_4/(4 I_3)"

    def __call__(self, y: float) -> float:
        raise TypeError(
            f"the {self.description} has no value at a bare y; read "
            "I_4/(4 I_3) of a solution's snapshot with PdeSolution.moment"
        )


SELF_CONSISTENT = _SelfConsistent()


# "%.12e" text in array operations: d.dddddddddddd then e+XX or e-XXX, as
# 2-byte units of a field NUL-padded to 20 bytes, the width of Python's
# widest text here, -d.dddddddddddde-XXX; the tables cover decades
# e = -290 ... 290, at index e + 290
_SCALES = np.array([float(f"1e{12 - e}") for e in range(-290, 291)])  # correctly rounded
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % e).ljust(6, b"\0") for e in range(-290, 291)), np.uint16
).reshape(-1, 3)
_LEADS = np.frombuffer(b"".join(b"%d." % d for d in range(10)), np.uint16)
_PAIRS = np.frombuffer(b"".join(b"%02d" % d for d in range(100)), np.uint16)
_DIGIT_STEPS = np.array([1e12, 1e10, 1e8, 1e6, 1e4, 1e2, 1.0]).reshape(-1, 1)
# the mantissa |v| 10^(12-e) carries at most 2^-52 relative error from the
# scale and the product, so rounding it is exact 2^-51 10^13 from a tie
_TIE_MARGIN = 0.5 - 2.0**-51 * 1e13


def _render_e12(v: np.ndarray) -> np.ndarray:
    """One row per value of the 1-D array v: the bytes of "%.12e" % v,
    NUL-padded to 20.  Python's own formatting renders the values this
    cannot round exactly: non-finite, signed (negatives and -0.0), off
    [1e-280, 1e280], within 2^-51 10^13 of a rounding tie, or with log10 a
    decade off or a mantissa that rounds up to 10^13."""
    fast = (v >= 1e-280) & (v <= 1e280)  # False for NaN, a sign or a zero
    a = np.where(fast, v, 1.0)
    decade = (np.floor(np.log10(a)) + 290).astype(np.intp)
    m = a * _SCALES[decade]
    rounded = np.rint(m)
    fast &= (m >= 1e12) & (m < 1e13 - 0.5) & (np.abs(m - rounded) < _TIE_MARGIN)
    # the leading digits n // 10^12, n // 10^10, ..., n: below 2^52,
    # floor(n / c) is exact in floats; int64 arithmetic would fault in numpy
    # kernels the run uses nowhere else, 64 KB of peak memory each
    heads = np.floor(np.where(fast, rounded, 1e12) / _DIGIT_STEPS)
    out = np.empty((v.size, 10), np.uint16)
    out[:, 0] = _LEADS[heads[0].astype(np.intp)]
    out[:, 1:7] = _PAIRS[(heads[1:] - 100 * heads[:-1]).T.astype(np.intp)]
    out[:, 7:] = _EXPONENTS.take(decade, axis=0)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((b"%.12e" % s).ljust(20, b"\0") for s in v[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, 20)
    return out


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
    def _x_fields(self) -> np.ndarray:
        return _render_e12(self.grid.centers)

    def snapshot_csv(self, y: float) -> str:
        """The snapshot file x,F,f,G at %.12e, the x column rendered once per solution."""
        fields = np.empty((self.grid.cells, 4, 21), np.uint8)
        fields[:, 0, :20] = self._x_fields
        # a column at a time: the renderer's temporaries take about 20
        # floats per value, and they set the peak memory of a small run
        columns = (self.snapshot(y), self.photon_spectrum(y), self.energy_spectrum(y))
        for k, column in enumerate(columns, 1):
            fields[:, k, :20] = _render_e12(column)
        fields[:, :, 20] = np.frombuffer(b",,,\n", np.uint8)
        return "x,F,f,G\n" + fields.tobytes().translate(None, b"\0").decode("ascii")

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

    A spectrum with no pointwise profile (a monoenergetic line) is sampled
    through its ``stand_in`` spectrum instead, which is returned alongside
    the samples.
    """
    actual = getattr(spectrum, "stand_in", spectrum)
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
    if aw.min() >= 1e-8 and w.max() <= 500.0:
        return w / np.expm1(w)
    out = np.empty_like(w)
    tiny = aw < 1e-8
    big = w > 500.0
    rest = ~(tiny | big)
    wt = w[tiny]
    out[tiny] = 1.0 - wt / 2.0 + wt * wt / 12.0
    out[big] = w[big] * np.exp(-w[big])
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


# ESDIRK4(3)6L[2]SA (Kennedy & Carpenter 2003, Appl. Numer. Math. 44:139),
# its rationals rounded once.  A row per implicit stage i = 2 ... 6: c_i,
# then a_i1 ... a_i,i-1 of (I - h/4 A) G_i = F + h (a_i1 k_1 + ...) at
# y + c_i h, where k_1 is the rate at y and k_i = (G_i - rhs)/(h/4).  The
# last row is b (stiffly accurate): G_6 is the result, k_6 the next k_1.
# _ERROR is b - b_hat, b_hat of third order.  Text, not float literals:
# folded into constant tuples, those raised every run's peak memory by
# about 0.15 MB where the module is compiled at import.
_DIAGONAL = 0.25
_STAGES = [(float(c), list(map(float, row))) for c, *row in map(str.split, """
    0.5   0.25
    0.332 0.137776 -0.055776
    0.62  0.14463686602698217 -0.22393190761334475 0.4492950415863626
    0.85  0.09825878328356477 -0.5915442428196704 0.8101210538282996 0.283164405707806
    1.0   0.15791629516167136 0.0 0.18675894052400077 0.6805652953093346 -0.27524053099500667
""".strip().splitlines())]
_ERROR = list(map(float, """0.0032044943984591762 0.0 -0.0024462511366794577
    -0.02148007591958727 0.043946868068572426 -0.02322503541076487""".split()))
# relative tolerance and solve cap of the closure iteration in a stage
_CLOSURE_RTOL = 1e-14
_CLOSURE_ITERATIONS = 12


class _ClosureUnsettled(ArithmeticError):
    """The closure iteration of a stage did not reach its fixed point."""


def step_floor(y_end: float) -> float:
    """The solver's step floor on [0, y_end]: a step it would have to take
    narrower than this raises StepSizeUnderflow or PositivityViolation."""
    return 1e-13 * max(1.0, y_end)


def solve_transport(
    spectrum,
    theta,
    grid: Grid,
    params: TransportParams = COMPTONIZATION,
    rtol: float = 1e-6,
    initial_dy: float = 1e-5,
    max_steps: int = 500_000,
) -> PdeSolution:
    """Integrate the transport equation over [0, y_end].

    Each attempted step of width h takes the five implicit stages of
    _STAGES, each one ``solve`` of I - h/4 A at its own assembly; the last
    is the new state, and its rate the next step's k1.  The local error
    estimate h (e_1 k_1 + ... + e_6 k_6) needs no solve, and the step width
    follows it with exponent -1/4.  An attempt with a stage that dips
    below the clipping tolerance is rejected and retried at half the
    width; smaller negative values of the result are clipped to zero and
    counted, and the step is rescaled to keep its photon number.  A step
    that would pass the next snapshot time or y_end sets y to it exactly,
    so the driver is read only on [0, y_end].  ``stats`` counts steps,
    clipped cells, assemblies and solves; ``stats["wall_s"]`` is the
    time spent taking those steps.

    ``SELF_CONSISTENT`` (Comptonization only) re-solves each stage at
    theta = I_4/(4 I_3) of its last solution, starting from the last
    settled theta, until theta moves by under _CLOSURE_RTOL; an attempt
    with a stage unsettled after _CLOSURE_ITERATIONS solves is rejected
    and retried at half the width.  A closure value that is not positive
    and finite raises NonPositiveTemperature.

    A prescribed theta, such as a contfrac.RationalForm, has a
    ``certify(y_end)`` that proves it finite and positive on [0, y_end]
    before any step; anything without one is refused with TypeError.
    """
    min_dy = step_floor(grid.y_end)
    if grid.y_end < min_dy:
        raise ValueError(f"y_end = {grid.y_end!r} is below the step floor {min_dy:g}: no step to take")
    closure = theta is SELF_CONSISTENT
    if not closure:
        if not hasattr(theta, "certify"):
            raise TypeError(f"a prescribed theta must certify itself finite and positive, "
                            f"as a contfrac.RationalForm does: {theta!r}")
        theta.certify(grid.y_end)
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

        dh = _DIAGONAL * dy_try
        rates, negative = [k1], False
        th_new = th  # a closure stage starts from the last settled theta
        try:
            for c, row in _STAGES:
                rhs = F + dy_try * sum(a * k for a, k in zip(row, rates))
                th_new = th_new if closure else theta(y_new if c == 1.0 else y + c * dy_try)
                F_new, th_new, bands = stage(rhs, dh, th_new)
                rates.append((F_new - rhs) / dh)
                negative = below_clip(F_new, low_new := float(F_new.min())) or negative
        except _ClosureUnsettled:
            rejected += 1
            dy = max(dy_try * 0.5, min_dy / 2)
            continue
        est = dy_try * sum(e * k for e, k in zip(_ERROR, rates))

        err = float((np.abs(est) / (atol + rtol * np.abs(F_new))).max())
        if not math.isfinite(err):
            # a NaN norm would compare as an accepted step; it also means
            # F_new holds no NaN past this point
            raise NonFiniteState(f"step error norm is {err} at y = {y:.6g}")
        factor = 4.0 if err == 0.0 else min(4.0, max(0.25, 0.9 * err ** -0.25))

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
            rates[-1] = op.apply(bands, F_new)
        F, k1, th = F_new, rates[-1], th_new
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
        "method": "esdirk4(3)6l[2]sa",
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
