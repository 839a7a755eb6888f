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
a BDF2 stage to y + h, both solving with the same M-matrix I - d h A,
with the embedded error estimate of Hosea & Shampine (1996, Appl.
Numer. Math. 20).  The trapezoidal right-hand side is not
positivity-preserving, so a step that leaves the positive cone is
retried at half the width.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import scipy

from .contfrac import ContinuedFraction, _check_level, _horner
from .moments import DerivativeTable
from .spectra import (
    COMPTONIZATION,
    GaussianPulse,
    Monoenergetic,
    TransportParams,
    profile_function,
)


def _load_dgtsv():
    """LAPACK dgtsv from scipy's compiled LAPACK wrapper, without
    importing scipy.linalg.

    scipy.linalg.lapack.dgtsv is the dgtsv of the extension module
    scipy.linalg._flapack, so loading that module alone gives the same
    routine and bit-identical solves, while the import of scipy.linalg
    (hundreds of modules, about 0.3 s) is skipped.  Creating the module
    enters it in sys.modules (it is a single-phase extension module);
    the entry is taken out again, so a later ``import scipy.linalg``
    imports it as usual, and CPython then hands back the same routines.
    Falls back to the public import if scipy.linalg is already loaded or
    the module cannot be found or loaded.
    """
    name = "scipy.linalg._flapack"
    spec = None
    if name not in sys.modules:
        linalg_dirs = [os.path.join(d, "linalg") for d in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, linalg_dirs)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dgtsv
        except ImportError:
            pass
        finally:
            sys.modules.pop(name, None)
    from scipy.linalg.lapack import dgtsv

    return dgtsv


dgtsv = _load_dgtsv()


class NonPositiveTemperature(ValueError):
    """theta(y) must stay strictly positive over the whole run."""


class PositivityViolation(ArithmeticError):
    """The solution went negative beyond the clipping tolerance at every
    step width down to the smallest allowed."""


class StepSizeUnderflow(ArithmeticError):
    """Adaptive stepping could not meet the error target."""


class SnapshotMissing(KeyError):
    """No stored snapshot at the requested y."""


class NonFiniteState(ArithmeticError):
    """A step produced a NaN or infinite value, or a singular step matrix."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered log grid in x plus the y span and snapshot times."""

    edges: tuple
    y_end: float
    snapshot_times: tuple

    def __post_init__(self):
        edges = tuple(float(v) for v in self.edges)
        if len(edges) < 3:
            raise ValueError("grid needs at least two cells")
        if edges[0] <= 0:
            raise ValueError("x_min must be positive")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("grid edges must increase strictly")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if any(b < a for a, b in zip(snaps, snaps[1:])):
            raise ValueError("snapshot times must be sorted")
        if snaps and (snaps[0] < 0 or snaps[-1] > self.y_end + 1e-12):
            raise ValueError("snapshot times must lie within [0, y_end]")
        if self.y_end <= 0:
            raise ValueError("y_end must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "snapshot_times", snaps)
        # derived arrays, built once; not fields, so equality, hashing and
        # the JSON form still see only the edges tuple
        e = np.asarray(edges)
        centers = np.sqrt(e[:-1] * e[1:])
        widths = e[1:] - e[:-1]
        centers.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_widths", widths)

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

    @property
    def centers(self) -> np.ndarray:
        """Geometric cell centers (read-only)."""
        return self._centers

    @property
    def widths(self) -> np.ndarray:
        """Cell widths (read-only)."""
        return self._widths

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
    """theta(y) as a plain callable plus a provenance description."""

    fn: Callable[[float], float]
    description: str

    def __call__(self, y: float) -> float:
        return float(self.fn(y))

    @classmethod
    def from_continued_fraction(cls, cf: ContinuedFraction, level: int) -> "TemperatureFn":
        num, den, _ = cf.float_form(level)

        def fn(y: float) -> float:
            return _horner(num, y) / _horner(den, y)

        return cls(fn=fn, description=f"continued fraction, level {level} ({cf.source})")

    @classmethod
    def from_table(cls, table: DerivativeTable, level: int) -> "TemperatureFn":
        _check_level(level, table.order, "table holds orders")
        coeffs = tuple(
            float(table[n]) / math.factorial(n) for n in range(level + 1)
        )

        def fn(y: float) -> float:
            return _horner(coeffs, y)

        return cls(fn=fn, description=f"Taylor partial sum, level {level} ({table.spectrum})")

    @classmethod
    def constant(cls, value) -> "TemperatureFn":
        v = float(value)

        def fn(y: float) -> float:
            return v

        return cls(fn=fn, description=f"constant {v:.6g}")


def check_temperature_positive(theta: TemperatureFn, y_end: float, samples: int = 2048):
    """Dense positivity pre-check; raises naming the first bad y."""
    ys = np.linspace(0.0, y_end, samples)
    for y in ys:
        v = theta(float(y))
        if not math.isfinite(v) or v <= 0:
            raise NonPositiveTemperature(
                f"theta(y) = {v!r} at y = {float(y):.6g}; the transport "
                f"equation requires a strictly positive temperature"
            )


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

    def snapshot(self, y: float) -> np.ndarray:
        for t, F in self.snapshots:
            if abs(t - y) <= 1e-9 * max(1.0, abs(y)):
                return F
        raise SnapshotMissing(
            f"no snapshot at y = {y}; stored: {[t for t, _ in self.snapshots]}"
        )

    def photon_spectrum(self, y: float) -> np.ndarray:
        """f(x, y) = F / x^i at the cell centers."""
        F = self.snapshot(y)
        return F / self.grid.centers ** float(self.params.i)

    def energy_spectrum(self, y: float) -> np.ndarray:
        """G(x, y) = x^3 f = x^(3-i) F at the cell centers."""
        F = self.snapshot(y)
        return F * self.grid.centers ** (3.0 - float(self.params.i))

    def moment(self, n, y: float) -> float:
        return grid_moment(self.grid, self.snapshot(y), n, self.params)


def grid_moment(grid: Grid, F: np.ndarray, n, params: TransportParams) -> float:
    """I_n = integral x^n f dx = sum x_m^(n-i) F_m dx_m on cell centers.

    The same midpoint rule backs the solver's conservation traces, so
    moment checks downstream see exactly the quantities the scheme
    conserves.
    """
    x = grid.centers
    shift = float(Fraction(n) - params.i)
    return float(np.sum(x ** shift * F * grid.widths))


def drift_diffusion(params: TransportParams, theta, x):
    """Rates of change of mean position and variance for a narrow pulse at x.

    Returns (d<x>/dy, d sigma^2/dy) = ((i+k) x^(k-1) - x^j/theta, 2 x^k).
    The drift vanishes at the balance point x = (i + k) theta when
    j - k + 1 = 1; the spreading rate never depends on theta.  Accepts
    scalars or arrays.
    """
    i = float(params.i)
    j = float(params.j)
    k = float(params.k)
    drift = (i + k) * x ** (k - 1.0) - x ** j / theta
    return drift, 2.0 * x ** k


def initial_cell_values(
    spectrum, grid: Grid, params: TransportParams
) -> tuple[np.ndarray, object]:
    """Point samples of F = x^i f0 at cell centers.

    A monoenergetic line is replaced by the narrow gaussian pulse with
    variance 1/100 carrying the same number density at the same energy;
    the replacement is returned alongside the samples.
    """
    actual = spectrum
    if isinstance(spectrum, Monoenergetic):
        actual = GaussianPulse(
            mean=spectrum.x0, variance=Fraction(1, 100), n0=spectrum.n0
        )
    f0 = profile_function(actual)
    x = grid.centers
    F = x ** float(params.i) * f0(x)
    if np.any(~np.isfinite(F)) or np.any(F < 0):
        raise ValueError("initial condition must be finite and non-negative on the grid")
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
    """Tridiagonal rate matrix dF/dy = A F of one grid, and its implicit step.

    Every term that depends only on the grid and the parameters is
    computed once here; ``assemble`` evaluates the theta-dependent rest.
    Each floating-point expression keeps the operation order of a
    from-scratch assembly, so the bands are bit-identical to it.  The
    counters record the work done.
    """

    def __init__(self, grid: Grid, params: TransportParams):
        x = grid.centers
        lo, hi = x[:-1], x[1:]
        self.cells = grid.cells
        self.dx = grid.widths
        self.p = float(params.p)
        # exact integral of W/C = x^(j-k)/theta - i/x between adjacent
        # centers: (hi^p - lo^p)/(p theta) - i ln(hi/lo) with p = j - k + 1,
        # or ln(hi/lo)/theta - i ln(hi/lo) when p = 0
        self.logratio = np.log(hi / lo)
        self.i_logratio = float(params.i) * self.logratio
        self.power_gap = hi ** self.p - lo ** self.p
        xe = np.asarray(grid.edges[1:-1])  # interior interfaces
        self.g = xe ** float(params.k) / (hi - lo)  # conductance of each interface
        # x^(3-i), the energy weight of grid_moment(..., 3, ...)
        self.energy_weight = x ** float(Fraction(3) - params.i)
        self.assemblies = 0
        self.linear_solves = 0

    def assemble(self, theta_val: float):
        """(lower, diag, upper) of A at temperature theta_val."""
        self.assemblies += 1
        if self.p == 0.0:
            w = self.logratio / theta_val - self.i_logratio
        else:
            w = self.power_gap / (self.p * theta_val) - self.i_logratio
        lam_m = _lambda_minus(w)
        lam_p = lam_m + w  # identity lambda_plus - lambda_minus = w
        g, dx = self.g, self.dx

        # flux at interface m+1/2: g * (lam_p F_{m+1} - lam_m F_m)
        upper = np.zeros(self.cells)
        lower = np.zeros(self.cells)
        diag = np.zeros(self.cells)
        upper[1:] = g * lam_p / dx[:-1]  # coefficient of F_{m+1} in row m
        lower[:-1] = g * lam_m / dx[1:]  # coefficient of F_{m-1} in row m+1
        diag[:-1] -= g * lam_m / dx[:-1]
        diag[1:] -= g * lam_p / dx[1:]
        return lower, diag, upper

    @staticmethod
    def apply(bands, F: np.ndarray) -> np.ndarray:
        """The rate A F for the bands of one assembly."""
        lower, diag, upper = bands
        AF = diag * F
        AF[:-1] += upper[1:] * F[1:]
        AF[1:] += lower[:-1] * F[:-1]
        return AF

    def step(self, F: np.ndarray, bands, dy: float) -> np.ndarray:
        """Solve (1 - dy A) F_new = F with LAPACK gtsv.

        That is one implicit Euler step of width dy; a TR-BDF2 stage of
        width h is the same solve with dy = d h.
        """
        lower, diag, upper = bands
        self.linear_solves += 1
        _, _, _, F_new, info = dgtsv(
            -dy * lower[:-1], 1.0 - dy * diag, -dy * upper[1:], F,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
        )
        if info != 0:
            raise NonFiniteState(f"step matrix is singular (LAPACK gtsv info = {info})")
        return F_new


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
    y + gamma h and a BDF2 stage to y + h, each one solve with
    I - d h A; a third solve with the BDF2 matrix filters the embedded
    error estimate h (e1 k1 + e2 k2 + e3 k3), and the step width follows
    it with exponent -1/3.  The rate at the end of an accepted step is
    the next step's k1, so an attempt costs two assemblies and three
    solves.  An attempt whose stage or result dips below the clipping
    tolerance is rejected and retried at half the width; smaller
    negative values are clipped to zero and counted, and the step is
    rescaled to keep its photon number.  Snapshot times are landed on
    exactly by clamping the step.
    """
    check_temperature_positive(theta, grid.y_end)
    F, actual_spectrum = initial_cell_values(spectrum, grid, params)
    F = F.copy()
    dx = grid.widths
    op = _Operator(grid, params)
    k1 = op.apply(op.assemble(theta(0.0)), F)

    atol = 1e-3 * rtol * float(np.max(F)) if np.max(F) > 0 else 1e-3 * rtol
    y = 0.0
    dy = float(initial_dy)
    min_dy = 1e-13 * max(1.0, grid.y_end)

    pending = [t for t in grid.snapshot_times]
    snaps: list = []
    if pending and abs(pending[0] - 0.0) <= 1e-12:
        snaps.append((0.0, F.copy()))
        pending.pop(0)

    trace_y = [0.0]
    trace_number = [float(np.sum(F * dx))]
    trace_energy = [float(np.sum(op.energy_weight * F * dx))]

    accepted = 0
    rejected = 0
    rejected_negative = 0
    clipped = 0
    dy_min_seen = math.inf
    dy_max_seen = 0.0
    dy_decades: dict = {}

    def below_clip(G):
        return float(G.min()) < -1e-6 * float(np.max(np.abs(G)))

    while y < grid.y_end - 1e-14:
        target = pending[0] if pending else grid.y_end
        dy_try = min(dy, target - y, grid.y_end - y)
        if dy_try < min_dy:
            raise StepSizeUnderflow(
                f"step fell to {dy_try:.3e} at y = {y:.6g} (limit {min_dy:.1e})"
            )

        dh = _D * dy_try
        # trapezoidal stage to y + gamma h
        F_tr = op.step(F + dh * k1, op.assemble(theta(y + _GAMMA * dy_try)), dh)
        k2 = (F_tr - F) / dh - k1
        # BDF2 stage to y + h
        bands = op.assemble(theta(y + dy_try))
        rhs = F + (_W * dy_try) * (k1 + k2)
        F_new = op.step(rhs, bands, dh)
        k3 = (F_new - rhs) / dh
        est = op.step(dy_try * (_E1 * k1 + _E2 * k2 + _E3 * k3), bands, dh)

        scale = atol + rtol * np.abs(F_new)
        err = float(np.max(np.abs(est) / scale))
        if not math.isfinite(err):
            # a NaN norm would compare as an accepted step
            raise NonFiniteState(f"step error norm is {err} at y = {y:.6g}")

        negative = below_clip(F_tr) or below_clip(F_new)
        if negative or err > 1.0:
            rejected += 1
            shrink = max(0.25, 0.9 * err ** (-1.0 / 3.0)) if err > 1.0 else 1.0
            if negative:
                rejected_negative += 1
                shrink = min(shrink, 0.5)
                if dy_try * shrink < min_dy:
                    raise PositivityViolation(
                        f"solution dips below zero at y = {y:.6g} even at step {dy_try:.3e}"
                    )
            dy = max(dy_try * shrink, min_dy / 2)
            continue

        y += dy_try
        neg = F_new < 0
        if np.any(neg):
            # zeroing the negative cells adds photons; scale the rest back
            # so the clipped step keeps the number integral it had
            clipped += int(np.count_nonzero(neg))
            number = float(np.sum(F_new * dx))
            F_new = np.where(neg, 0.0, F_new)
            F_new *= number / float(np.sum(F_new * dx))
            k3 = op.apply(bands, F_new)
        F, k1 = F_new, k3
        accepted += 1
        dy_min_seen = min(dy_min_seen, dy_try)
        dy_max_seen = max(dy_max_seen, dy_try)
        decade = math.floor(math.log10(dy_try))
        dy_decades[decade] = dy_decades.get(decade, 0) + 1

        trace_y.append(y)
        trace_number.append(float(np.sum(F * dx)))
        trace_energy.append(float(np.sum(op.energy_weight * F * dx)))

        if pending and abs(y - pending[0]) <= 1e-12:
            snaps.append((pending.pop(0), F.copy()))

        if accepted + rejected > max_steps:
            raise StepSizeUnderflow(f"exceeded {max_steps} steps at y = {y:.6g}")

        growth = 4.0 if err == 0.0 else min(4.0, max(0.25, 0.9 * err ** (-1.0 / 3.0)))
        dy = dy_try * growth

    if pending:
        # y_end reached within roundoff of the last snapshot time
        while pending and abs(y - pending[0]) <= 1e-9:
            snaps.append((pending.pop(0), F.copy()))
        if pending:
            raise SnapshotMissing(f"unreached snapshot times: {pending}")

    stats = {
        "method": "tr-bdf2",
        "steps_accepted": accepted,
        "steps_rejected": rejected,
        "steps_rejected_negative": rejected_negative,
        "cells_clipped": clipped,
        "assemblies": op.assemblies,
        "linear_solves": op.linear_solves,
        "dy_min": dy_min_seen if accepted else 0.0,
        "dy_max": dy_max_seen,
        # [10^e, accepted steps with 10^e <= dy < 10^(e+1)], ascending
        "dy_histogram": [[float(f"1e{e}"), n] for e, n in sorted(dy_decades.items())],
        "rtol": rtol,
        "spectrum": actual_spectrum.describe(),
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


# ---------------------------------------------------------------------------
# file output


def write_snapshot_csv(sol: PdeSolution, y: float, path) -> None:
    x = sol.grid.centers
    F = sol.snapshot(y)
    i = float(sol.params.i)
    f = F / x ** i
    G = F * x ** (3.0 - i)
    rows = np.column_stack((x, F, f, G)).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,F,f,G\n" + ("%.12e,%.12e,%.12e,%.12e\n" * len(x)) % tuple(rows))


def write_run_manifest(sol: PdeSolution, path, snapshot_files: dict | None = None, timestamp: str | None = None) -> None:
    data = {
        "schema": "compfrac.run-manifest/1",
        "grid": sol.grid.to_json_dict(),
        "params": sol.params.describe(),
        "theta": sol.theta_description,
        "stats": sol.stats,
        "snapshots": [t for t, _ in sol.snapshots],
        "snapshot_files": snapshot_files or {},
        "conservation": {
            "y": [float(v) for v in sol.trace_y],
            "number": [float(v) for v in sol.trace_number],
            "energy": [float(v) for v in sol.trace_energy],
        },
    }
    if timestamp is not None:
        data["written_at"] = timestamp
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
