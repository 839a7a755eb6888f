"""One repetition of a workload, in a fresh interpreter.

Run by run.py as ``python3 perfbench/child.py --workload W --mode M --work DIR``
with ``PYTHONPATH`` set to the checkout's ``src``.  Modes:

* ``setup``:  import ``compfrac.cli`` and build the config, nothing more;
* ``rep``:    set up, run the workload untraced, check its outputs;
* ``traced``: the same with every public layer function wrapped in spans.

The last line of stdout is one JSON object with the measurements.
Checks run after the timed region, so they never count toward wall_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

SCENARIOS = {"pulse_reproduce": "monoenergetic", "freefree_reproduce": "bremsstrahlung"}
DEEP_ORDER = 30
Y_MAX = 2.0
MAX_NUMBER_DRIFT = 1e-12


# ---------------------------------------------------------------------------
# correctness checks


def fraction_digest(values) -> str:
    """sha256 of exact rationals written as numerator/denominator lines."""
    text = "\n".join(f"{v.numerator}/{v.denominator}" for v in map(Fraction, values))
    return hashlib.sha256(text.encode()).hexdigest()


def exact_failures(spectrum: str, table, cf) -> list:
    """Check a derivative table and its fraction against the seed digests
    and against the order-matching property of the fraction."""
    from compfrac.contfrac import maclaurin_of_rational, to_rational

    failures = []
    ref = REFERENCE["exact"].get(spectrum, {}).get(str(table.order))
    if ref is None:
        failures.append(f"{spectrum}: no reference digest at order {table.order}")
    else:
        if fraction_digest(table.values) != ref["table"]:
            failures.append(f"{spectrum}: derivative table differs from the seed (M={table.order})")
        if fraction_digest(cf.coefficients) != ref["cf"]:
            failures.append(f"{spectrum}: fraction coefficients differ from the seed (M={table.order})")
    series = maclaurin_of_rational(to_rational(cf, cf.truncation), table.order)
    for m, term in enumerate(series):
        if term != table[m] / math.factorial(m):
            failures.append(f"{spectrum}: fraction fails to match the series at order {m}")
            break
    return failures


def data_digest(out: Path) -> str:
    """Combined sha256 of the data files; the run manifest holds a timestamp."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if not path.name.startswith("run_"):
            h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def reproduce_checks(scenario: str, out: Path, exit_code: int) -> dict:
    from compfrac.contfrac import ContinuedFraction
    from compfrac.moments import DerivativeTable

    failures = []
    if exit_code != 0:
        failures.append(f"{scenario}: reproduce exited with {exit_code}")
    report = json.loads((out / f"verify_{scenario}.json").read_text())
    if not report["passed"]:
        failures.append(f"{scenario}: verify did not pass")
    if not report["number_drift"] <= MAX_NUMBER_DRIFT:
        failures.append(f"{scenario}: photon-number drift {report['number_drift']:.3e}")
    table = DerivativeTable.load_json(out / f"derivs_{scenario}.json")
    cf = ContinuedFraction.from_json_dict(json.loads((out / f"cf_{scenario}.json").read_text()))
    failures += exact_failures(scenario, table, cf)
    files = [p for p in out.iterdir() if p.is_file()]
    return {
        "failures": failures,
        "max_rel_dev": report["max_rel_dev"],
        "data_identical": data_digest(out) == REFERENCE["data"][scenario],
        "files_written": len(files),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


# ---------------------------------------------------------------------------
# workloads


def shipped_config(scenario: str):
    from importlib import resources

    from compfrac.cli import build_config, load_config_file

    ref = resources.files("compfrac") / "configs" / f"{scenario}.cfg"
    with resources.as_file(ref) as path:
        return build_config(load_config_file(path))


def setup(workload: str):
    """What a CLI user pays before any work: the import and the config."""
    import compfrac.cli  # noqa: F401

    scenarios = [SCENARIOS[workload]] if workload in SCENARIOS else list(SCENARIOS.values())
    return [shipped_config(s) for s in scenarios]


def run_reproduce(scenario: str, out: Path, argv_extra=()) -> int:
    from compfrac import cli

    return cli.main(["reproduce", scenario, "--out-dir", str(out), *argv_extra])


def run_deep_series(order: int = DEEP_ORDER) -> dict:
    """Exact layers alone: table, fraction and level selection per spectrum."""
    from compfrac import contfrac, moments, spectra

    results = {}
    for spectrum in (spectra.Monoenergetic(), spectra.Bremsstrahlung()):
        name = "monoenergetic" if isinstance(spectrum, spectra.Monoenergetic) else "bremsstrahlung"
        try:
            table = moments.theta_derivatives_comptonization(spectrum, order)
            cf = contfrac.cf_coefficients(table)
            eq = spectra.equilibrium_temperature(spectrum)
            theta_eq = eq.value if eq.meaningful else Fraction(0)
            selection = contfrac.select_approximant(cf, Y_MAX, theta_eq=theta_eq)
            results[name] = (table, cf, selection.level, theta_eq)
        except Exception:
            results[name] = traceback.format_exc()
    return results


def deep_series_checks(results: dict) -> dict:
    from compfrac.contfrac import to_rational

    failures = []
    gap = None
    for name, outcome in results.items():
        if isinstance(outcome, str):
            failures.append(f"{name}: {outcome}")
            continue
        table, cf, level, theta_eq = outcome
        failures += exact_failures(name, table, cf)
        if name == "monoenergetic":
            tail = to_rational(cf, level).eval_exact(Fraction(Y_MAX))
            gap = float(abs(tail - theta_eq) / theta_eq)
    return {"failures": failures, "theta_gap": gap}


def run_workload(workload: str, work: Path, tracer=None):
    """Time one repetition; returns (wall_s, checks_fn)."""
    if workload in SCENARIOS:
        scenario = SCENARIOS[workload]
        out = work / "out"
        start = time.perf_counter()
        try:
            code = run_reproduce(scenario, out)
        except Exception:
            code = traceback.format_exc()
        wall = time.perf_counter() - start
        if isinstance(code, str):
            return wall, lambda: {"failures": [f"{scenario}: {code}"]}
        return wall, lambda: reproduce_checks(scenario, out, code)
    deep = run_deep_series if tracer is None else tracer.wrap("bench", "deep_series", run_deep_series)
    start = time.perf_counter()
    results = deep()
    wall = time.perf_counter() - start
    return wall, lambda: deep_series_checks(results)


def ops_of(workload: str) -> int:
    return 1 if workload in SCENARIOS else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=(*SCENARIOS, "deep_series"), required=True)
    parser.add_argument("--mode", choices=("setup", "rep", "traced"), required=True)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    setup(args.workload)
    result = {"setup_s": time.perf_counter() - setup_start}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, compfrac_targets

        tracer = Tracer()
        tracer.install(compfrac_targets())

    wall, checks = run_workload(args.workload, args.work, tracer)
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        from tracer import layer_metrics, self_times

        tracer.uninstall()
        result["trace"] = layer_metrics(tracer.spans)
        result["self_times"] = self_times(tracer.spans)
        (args.work / "spans.json").write_text(json.dumps(tracer.spans))

    result["ops"] = ops_of(args.workload)
    try:
        result.update(checks())
    except Exception:
        result["failures"] = [f"{args.workload}: checks raised\n{traceback.format_exc()}"]
    # one failed operation per failing reproduce run or failing spectrum
    failed = {f.split(":", 1)[0] for f in result["failures"]}
    result["failed"] = result["ops"] if args.workload in failed else min(len(failed), result["ops"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
