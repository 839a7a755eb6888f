"""Tests of the benchmark itself: its exact check and its tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import time
from fractions import Fraction

import pytest

import child
from tracer import Tracer, compfrac_targets, layer_metrics, self_times

from compfrac import contfrac, moments, spectra

# a reproduce small enough for a unit test that still runs every stage
SMALL_REPRODUCE = (
    "--M", "8", "--grid-cells", "40", "--snapshots", "3",
    "--cf-N", "6,8", "--taylor-N", "4", "--samples", "9",
)


@pytest.fixture(scope="module")
def freefree_24():
    table = moments.theta_derivatives_comptonization(spectra.Bremsstrahlung(), 24)
    return table, contfrac.cf_coefficients(table)


def test_exact_check_accepts_seed_table(freefree_24):
    table, cf = freefree_24
    assert child.exact_failures("bremsstrahlung", table, cf) == []


def test_exact_check_rejects_one_perturbed_entry(freefree_24):
    table, cf = freefree_24
    values = list(table.values)
    values[7] += Fraction(1, 10**30)
    perturbed = dataclasses.replace(table, values=tuple(values))

    # digest: the perturbed table and its own fraction both differ from the seed
    failures = child.exact_failures("bremsstrahlung", perturbed, contfrac.cf_coefficients(perturbed))
    assert any("derivative table differs" in f for f in failures)
    assert any("coefficients differ" in f for f in failures)
    # order matching: the seed fraction no longer reproduces the series
    failures = child.exact_failures("bremsstrahlung", perturbed, cf)
    assert "bremsstrahlung: fraction fails to match the series at order 7" in failures


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_traced_self_times_add_up_to_wall(tmp_path):
    run = lambda out: child.run_reproduce("bremsstrahlung", tmp_path / out, SMALL_REPRODUCE)  # noqa: E731
    untraced = min(_timed(lambda: run(f"plain{k}")) for k in range(3))

    tracer = Tracer()
    tracer.install(compfrac_targets())
    try:
        traced = _timed(lambda: run("traced"))
    finally:
        tracer.uninstall()

    overhead = max(traced - untraced, 0.0)
    unaccounted = traced - sum(self_times(tracer.spans).values())
    assert 0.0 <= unaccounted <= overhead + 1e-3

    metrics = layer_metrics(tracer.spans)
    assert metrics["moments.calls"] == 4
    assert metrics["transport.solve_calls"] == 2
    assert metrics["contfrac.select_calls"] == 3
    assert metrics["verify.rows"] == 3
    assert metrics["transport.steps_accepted"] > 0


def test_uninstall_restores_the_cli_bindings():
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in compfrac_targets()}
    tracer = Tracer()
    tracer.install(compfrac_targets())
    tracer.uninstall()
    assert {(m.__name__, a): getattr(m, a) for m, a, _, _ in compfrac_targets()} == before


def test_deep_series_traced_spans_skip_transport():
    tracer = Tracer()
    tracer.install(compfrac_targets())
    try:
        results = tracer.wrap("bench", "deep_series", child.run_deep_series)(order=6)
    finally:
        tracer.uninstall()
    assert set(results) == {"monoenergetic", "bremsstrahlung"}
    metrics = layer_metrics(tracer.spans)
    assert metrics["moments.calls"] == 2
    assert metrics["contfrac.select_calls"] == 2
    assert metrics["transport.solve_calls"] == 0
