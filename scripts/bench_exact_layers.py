#!/usr/bin/env python3
"""Before/after timings of the exact layers, written to a BENCH_*.json.

    python3 scripts/bench_exact_layers.py --before ../parent \
        --out BENCH_exact_layers.json

``--before`` is the root of another checkout (for instance the parent
commit, extracted with ``git archive``); "after" is the checkout holding
this script.  For each order M in {24, 30, 40, 64} and spectrum,
``CHILDREN`` fresh interpreters per side (the sides alternating which
goes first) each import that side's ``src/`` and time ``REPS``
repetitions on fresh objects of:

* ``table_comptonization`` and ``table_general``: the derivative table by
  both routes;
* ``cf_coefficients``: the fraction from the table, which reads each
  coefficient off the fold it builds, so this includes every level's form;
* ``fold``: the first ``to_rational`` call on a fraction built from the
  stored coefficients, which folds every level 0..M from them;
* ``select``: ``select_approximant`` (y_max = 2, theta_eq from
  ``equilibrium_temperature``) on a fresh fraction, fold included.

Each layer's row holds the median and quartiles of all its
``CHILDREN * REPS`` samples on a side, with the samples; one child alone
cannot tell a change of a quarter from noise.

It then runs the benchmark's ``deep_series`` workload
(``perfbench/run.py --trace 0``) ``PAIRS`` times on each side, alternating
which side goes first, and records every ``wall_s`` with the medians,
quartiles and the number of pairs the after side wins.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (24, 30, 40, 64)
SPECTRA = ("monoenergetic", "bremsstrahlung")
CHILDREN = 5
REPS = 3
PAIRS = 10


def time_layers(order: int, spectrum_name: str) -> dict:
    """Seconds of each repetition per layer for one order and spectrum, in
    this process."""
    from compfrac import contfrac, moments, spectra

    spectrum = {"monoenergetic": spectra.Monoenergetic, "bremsstrahlung": spectra.Bremsstrahlung}[
        spectrum_name
    ]()
    theta_eq = spectra.equilibrium_temperature(spectrum).value
    samples: dict = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        samples.setdefault(name, []).append(time.perf_counter() - start)
        return out

    for _ in range(REPS):
        table = timed(
            "table_comptonization",
            lambda: moments.theta_derivatives_comptonization(spectrum, order),
        )
        timed(
            "table_general",
            lambda: moments.theta_derivatives_general(spectra.COMPTONIZATION, spectrum, order),
        )
        cf = timed("cf_coefficients", lambda: contfrac.cf_coefficients(table))
        fresh = contfrac.ContinuedFraction(cf.coefficients)
        timed("fold", lambda: contfrac.to_rational(fresh, 0))
        fresh = contfrac.ContinuedFraction(cf.coefficients)
        timed("select", lambda: contfrac.select_approximant(fresh, 2.0, theta_eq=theta_eq))
    return samples


def layers_of(root: Path, order: int, spectrum: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, __file__, "--child", spectrum, str(order)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def layers(sides: dict) -> dict:
    """Per-layer summaries of every order and spectrum on both sides, from
    ``CHILDREN`` children per side; the sides alternate which goes first,
    so a drift in the machine's load does not fall on one side."""
    out: dict = {side: {} for side in sides}
    for order, spectrum in itertools.product(ORDERS, SPECTRA):
        samples: dict = {side: {} for side in sides}
        for child in range(CHILDREN):
            for side in ("before", "after") if child % 2 == 0 else ("after", "before"):
                for name, vals in layers_of(sides[side], order, spectrum).items():
                    samples[side].setdefault(name, []).extend(vals)
        for side, by_layer in samples.items():
            key = f"{spectrum}/M={order}"
            out[side][key] = {name: summary(vals) for name, vals in by_layer.items()}
    return out


def deep_series_wall(root: Path, seed: int) -> float:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "deep_series",
           "--seed", str(seed), "--seconds", "15", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"deep_series failed in {root}: {result}")
    return result["metrics"]["wall_s"]["value"]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_exact_layers.json")
    parser.add_argument("--child", nargs=2, metavar=("SPECTRUM", "ORDER"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spectrum, order = args.child
        print(json.dumps(time_layers(int(order), spectrum)))
        return 0
    if args.before is None:
        parser.error("--before is required")

    sides = {"before": args.before.resolve(), "after": ROOT}
    import numpy
    import scipy

    report = {
        "schema": "compfrac.bench-exact-layers/2",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "children": CHILDREN,
        "reps": REPS,
        "unit": "s",
        "layers": layers(sides),
    }
    walls: dict = {"before": [], "after": []}
    for pair in range(PAIRS):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            walls[side].append(deep_series_wall(sides[side], seed=100 + pair))
    wins = sum(a < b for a, b in zip(walls["after"], walls["before"]))
    report["deep_series_wall_s"] = {
        "command": "python3 perfbench/run.py --workload deep_series --seed S --seconds 15 --trace 0",
        "pairs": PAIRS,
        "after_wins": wins,
        **{side: summary(vals) for side, vals in walls.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
