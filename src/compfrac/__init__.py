"""Continued-fraction resummation for self-consistent photon transport.

The pipeline: exact initial derivatives of the temperature functional
(moments), their continued-fraction resummation past the series'
radius of convergence (contfrac), a conservative positivity-preserving
transport solve driven by the resummed temperature (transport), and
the a-posteriori consistency check (verify).
"""

from .contfrac import (
    ContinuedFraction,
    DefectReport,
    Pole,
    PoleHit,
    RationalForm,
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
    TransportParams,
    UnsupportedParams,
    equilibrium_spectrum,
    equilibrium_temperature,
    initial_moment,
    profile_function,
)
from .transport import (
    Grid,
    PdeSolution,
    PositivityViolation,
    SnapshotMissing,
    TemperatureFn,
    drift_diffusion,
    grid_moment,
    solve_transport,
)
from .verify import (
    ConservationReport,
    VerificationReport,
    conservation_report,
    output_temperature,
    self_consistency,
)

__version__ = "0.1.0"
