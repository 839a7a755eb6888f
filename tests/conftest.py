"""Session fixtures: exact tables, fractions, and the expensive solver runs.

The solver fixtures are shared by the module tests and the acceptance
gate, so each configuration runs once per session.  Snapshot sets:
UNIFORM21 is the reporting mesh for temperature comparisons, FD_SET is
the denser mesh (log-spaced early, uniform late) used to difference
moment curves in y.

Every test, the set-up of the fixtures it needs included, must finish
within TEST_TIME_LIMIT_S: an arithmetic slip that inflates integers
instead of giving a wrong small value then fails one test rather than
hanging the suite.
"""

import signal
import threading

import numpy as np
import pytest
from fractions import Fraction

from compfrac.contfrac import cf_coefficients, select_approximant
from compfrac.moments import theta_derivatives_comptonization
from compfrac.spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    Monoenergetic,
    equilibrium_spectrum,
)
from compfrac.transport import Grid, TemperatureFn, solve_transport

# the slowest test, its session fixtures included, takes about 1 s (2 CPUs)
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  It is not an
    Exception, so hypothesis passes it on instead of taking it for a
    failing example to shrink and replay; pytest records it as a failure."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a test that runs past TEST_TIME_LIMIT_S.  The limit is a
    SIGALRM, so it holds on POSIX in the main thread only; elsewhere tests
    run unlimited.  It wraps the whole protocol rather than the test call
    alone, because session fixtures (tables, fractions, solves) are set up
    inside the first test that asks for them."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expired(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S} s limit per test")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


UNIFORM21 = tuple(float(v) for v in np.linspace(0.0, 2.0, 21))
FD_SET = tuple(
    sorted(
        set(float(v) for v in np.geomspace(1e-3, 2.0, 41))
        | set(float(v) for v in np.linspace(0.0, 2.0, 81))
    )
)
RUN_SNAPSHOTS = tuple(sorted(set(UNIFORM21) | set(float(v) for v in np.geomspace(1e-3, 2.0, 41))))


@pytest.fixture(scope="session")
def mono_table():
    return theta_derivatives_comptonization(Monoenergetic(), 24)


@pytest.fixture(scope="session")
def brems_table():
    return theta_derivatives_comptonization(Bremsstrahlung(), 24)


@pytest.fixture(scope="session")
def mono_cf(mono_table):
    return cf_coefficients(mono_table)


@pytest.fixture(scope="session")
def brems_cf(brems_table):
    return cf_coefficients(brems_table)


@pytest.fixture(scope="session")
def mono_selection(mono_cf):
    return select_approximant(mono_cf, 2.0, theta_eq=Fraction(4, 3))


@pytest.fixture(scope="session")
def brems_selection(brems_cf):
    return select_approximant(brems_cf, 2.0, theta_eq=Fraction(0))


@pytest.fixture(scope="session")
def mono_theta(mono_cf):
    return TemperatureFn.from_continued_fraction(mono_cf, 24)


@pytest.fixture(scope="session")
def brems_theta(brems_cf):
    return TemperatureFn.from_continued_fraction(brems_cf, 24)


@pytest.fixture(scope="session")
def mono_run(mono_theta):
    """Pulse scenario on the default domain."""
    grid = Grid.log_spaced(cells=400, x_min=1e-3, x_max=50.0, snapshots=RUN_SNAPSHOTS)
    return solve_transport(Monoenergetic(), mono_theta, grid, rtol=1e-6)


@pytest.fixture(scope="session")
def brems_run(brems_theta):
    """Free-free scenario; the soft cutoff sits at 1e-5 because the
    initial profile carries logarithmically divergent photon number
    toward x = 0 and the late-time temperature depends on how much of
    that reservoir the grid retains."""
    grid = Grid.log_spaced(cells=600, x_min=1e-5, x_max=50.0, snapshots=RUN_SNAPSHOTS)
    return solve_transport(Bremsstrahlung(), brems_theta, grid, rtol=1e-6)


@pytest.fixture(scope="session")
def negctl_run(brems_run):
    """Same free-free configuration driven by a flat temperature."""
    return solve_transport(
        Bremsstrahlung(), TemperatureFn.constant(1), brems_run.grid, rtol=1e-6
    )


@pytest.fixture(scope="session")
def wien_run():
    grid = Grid.log_spaced(cells=400, snapshots=21)
    ic = equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=Fraction(4, 3))
    return solve_transport(ic, TemperatureFn.constant(Fraction(4, 3)), grid, rtol=1e-6)


@pytest.fixture(scope="session")
def mono_fd_run(mono_theta):
    """Finer mesh for differencing moment curves: the identity residual
    between the discrete flux-divergence moments and the continuum
    hierarchy shrinks at second order in the cell width."""
    grid = Grid.log_spaced(cells=800, x_min=1e-3, x_max=50.0, snapshots=FD_SET)
    return solve_transport(Monoenergetic(), mono_theta, grid, rtol=1e-6)


@pytest.fixture(scope="session")
def brems_fd_run(brems_theta):
    grid = Grid.log_spaced(cells=1200, x_min=1e-3, x_max=50.0, snapshots=FD_SET)
    return solve_transport(Bremsstrahlung(), brems_theta, grid, rtol=1e-6)
