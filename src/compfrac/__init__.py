"""Continued-fraction resummation for self-consistent photon transport.

The pipeline: exact initial derivatives of the temperature functional
(moments), their continued-fraction resummation past the series'
radius of convergence (contfrac), a conservative positivity-preserving
transport solve driven by the resummed temperature (transport), and
the a-posteriori consistency check (verify).

While the package imports numpy, which loads OpenBLAS, it sets
OPENBLAS_NUM_THREADS to 1 unless the variable is already set, and afterwards
restores the environment as it was, so processes the caller starts later do
not inherit the setting.  compfrac makes no threaded BLAS call (its one
LAPACK routine, dgtsv, runs sequentially and is taken from numpy's
OpenBLAS), and the worker threads OpenBLAS would otherwise start spin for
about 0.1 s after loading, competing with the main thread on a small
machine.  Where numpy's LAPACK exports no dgtsv, transport imports it from
scipy.linalg.lapack (about 0.3 s more), and scipy's own OpenBLAS loads under
the same setting.  Set the variable before starting Python to choose another
thread count.
"""

import os

_openblas_threads_preset = "OPENBLAS_NUM_THREADS" in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    from . import transport  # imports numpy, which loads OpenBLAS
finally:
    if not _openblas_threads_preset:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    del _openblas_threads_preset

from .contfrac import (
    ContinuedFraction,
    DefectReport,
    PoleHit,
    RationalForm,
    Root,
    SelectionResult,
    cf_coefficients,
    cf_eval,
    cf_eval_exact,
    find_defects,
    maclaurin_of_rational,
    select_approximant,
    taylor_eval,
    to_rational,
)
from .moments import (
    DerivativeTable,
    theta_derivatives_comptonization,
    theta_derivatives_general,
)
from .spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    DivergentMoment,
    EquilibriumSpectrum,
    GaussianPulse,
    Monoenergetic,
    NumericalFailure,
    TransportParams,
    UnsupportedParams,
    equilibrium_spectrum,
    equilibrium_temperature,
)
from .transport import (
    Grid,
    PdeSolution,
    PositivityViolation,
    SnapshotMissing,
    TemperatureFn,
    grid_moment,
    solve_transport,
)
from .verify import (
    VerificationReport,
    output_temperature,
    self_consistency,
)

__version__ = "0.1.0"
