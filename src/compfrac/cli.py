"""Command-line pipeline: derivative tables, resummed curves, transport runs.

Subcommands mirror the pipeline stages: ``derivs`` builds the exact
derivative table, ``cf`` turns it into continued-fraction data and
sampled curves, ``solve`` runs the transport solve driven by a chosen
temperature, ``verify`` closes the loop, and ``reproduce`` chains all
four from a shipped scenario config.  Each subcommand writes from one
``Run``, which builds every artifact once, the solve included, and checks
all it writes before its first file: a refused run writes nothing.

Every output file is schema-versioned and byte-deterministic for a
fixed config; the run manifest carries the only timestamp.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .contfrac import (
    ContinuedFraction,
    PoleHit,
    RationalForm,
    cf_coefficients,
    cf_eval,
    find_defects,  # not called here: perfbench/tracer.py wraps it on this module
    select_approximant,
    taylor_eval,
    taylor_form,
    to_rational,
)
from .moments import DerivativeTable, theta_derivatives_comptonization
from .spectra import (
    COMPTONIZATION,
    Bremsstrahlung,
    Monoenergetic,
    NumericalFailure,
    equilibrium_spectrum,
    equilibrium_temperature,
)
from .transport import (
    Grid,
    PdeSolution,
    solve_transport,
    step_floor,
)
from .verify import VerificationReport, self_consistency

__all__ = ["ConfigError", "Run", "RunConfig", "load_config_file", "build_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


class ConfigError(ValueError):
    """Invalid configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; file keys and flag names match field names."""

    spectrum: str = "monoenergetic"
    M: int = 24
    y_max: float = 2.0
    theta: str = "cf"
    grid_cells: int = 400
    grid_x_min: float = 1e-3
    grid_x_max: float = 50.0
    snapshots: int = 21
    rtol: float = 1e-6
    tolerance: float = 0.02
    taylor_n: str = ""
    cf_n: str = ""
    samples: int = 81
    out_dir: str = "out"
    label: str = ""

    @property
    def tag(self) -> str:
        if self.label:
            return self.label
        return self.spectrum.split(":", 1)[0]


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_CANONICAL = {name.lower(): name for name in _FIELDS}
# Every numeric run bound, written once.  Each limit keeps the pulse run bounded (measured
# in README); the y_max limit keeps the step floor 100x below the first step.  The joint
# bounds, keyed by the fields they tie, cap the products the single limits leave open,
# each at a corner measured for one limit.
_BOUNDS = {"M": (0, 64), "snapshots": (2, 50_000), "grid_cells": (8, 150_000),
           "samples": (2, 500_000), "rtol": (1e-14, 0.1), "y_max": (None, 1e6),
           "grid_cells, snapshots": (None, 2e7), "samples, cf_n, taylor_n": (None, 4e6),
           "grid_cells, rtol, snapshots": (None, 1.28e8)}


def _parse_number(text: str) -> float:
    """Accept both decimal and p/q forms so configs can state exact values."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}")
    except OverflowError:
        raise ValueError(f"{text!r} is out of floating-point range")


def load_config_file(path) -> dict:
    """Flat key=value lines; blank lines and # comment lines skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, a NUL in the path
        raise ConfigError("config", f"cannot read {path!r}: {exc}")
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{ln}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        key = _CANONICAL.get(key.lower(), key)
        if key not in _FIELDS:
            raise ConfigError(key, f"unknown config key ({path}:{ln})")
        values[key] = value.strip()
    return values


def _coerce(name: str, raw) -> object:
    if not isinstance(raw, str):
        return raw
    kind = _FIELDS.get(name)  # "int", "float" or "str" under postponed annotations
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _parse_number(raw)
    except ValueError as exc:
        raise ConfigError(name, str(exc))
    return raw


def build_config(file_values: dict | None = None, flag_values: dict | None = None) -> RunConfig:
    """Defaults, then config file, then flags; flags win."""
    merged = {}
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            merged[key] = _coerce(key, value)
    config = RunConfig(**merged)
    _validate(config)
    return config


def _num(value) -> str:
    """A number as the flag help and the messages write it: 150000, 1e-14, 1e6, 1.28e8."""
    return f"{value:g}".replace("e+0", "e").replace("e+", "e")


def _span(name: str) -> str:
    return "..".join(_num(b) for b in _BOUNDS[name] if b is not None)


def _validate(config: RunConfig) -> None:
    _parse_spectrum(config.spectrum)
    # each two-sided bound, the counts and rtol, before y_max divides by snapshots - 1
    for name, (lo, hi) in _BOUNDS.items():
        if lo is not None and not lo <= getattr(config, name) <= hi:
            raise ConfigError(name, f"need {_span(name)}, got {getattr(config, name)}")
    if not (config.y_max <= _BOUNDS["y_max"][1]
            and config.y_max / (config.snapshots - 1) > step_floor(config.y_max)):
        raise ConfigError(
            "y_max",
            f"must lie in ({step_floor(1.0) * (config.snapshots - 1):g}, {_span('y_max')}] for"
            f" {config.snapshots} snapshots, got {config.y_max}; the snapshot spacing"
            f" must exceed the solver's step floor ({step_floor(config.y_max):g} here),"
            f" and the {_span('y_max')} limit keeps that floor 100x below the first step, 1e-5",
        )
    if not 0 < config.grid_x_min < config.grid_x_max:
        raise ConfigError(
            "grid_x_min",
            f"need 0 < x_min < x_max, got [{config.grid_x_min}, {config.grid_x_max}]",
        )
    if not config.tolerance > 0:
        raise ConfigError("tolerance", f"must be positive, got {config.tolerance}")
    if "\0" in config.out_dir:
        raise ConfigError("out_dir", f"holds a NUL byte, got {config.out_dir!r}")
    if config.label in (".", "..") or any(c in config.label for c in ("/", os.sep, "\0")):
        raise ConfigError("label", f"must be a plain file name, got {config.label!r}")
    _parse_theta_spec(config.theta, config.M)
    taylor_levels = _parse_levels(config.taylor_n, config.M, "taylor_n")
    # an empty cf_n list emits the selected level alone
    levels = len(taylor_levels) + (len(_parse_levels(config.cf_n, config.M, "cf_n")) or 1)
    # TR-BDF2's pulse steps at 400 cells: 6x to 24x today's (110 at 1e-6, 2,838 at 1e-12)
    steps = 687 * (1e-6 / config.rtol) ** (1 / 3)
    for names, product, size in (
        ("grid_cells, snapshots", "held snapshot values grid_cells * snapshots",
         config.grid_cells * config.snapshots),
        ("samples, cf_n, taylor_n", "curve evaluations samples * levels", config.samples * levels),
        ("grid_cells, rtol, snapshots",
         "solver work grid_cells * (687 (1e-6/rtol)^(1/3) + snapshots)",
         config.grid_cells * (steps + config.snapshots)),
    ):
        if size > _BOUNDS[names][1]:
            raise ConfigError(names, f"{product} = {_num(size)}, need at most {_span(names)}")


def _parse_spectrum(spec: str):
    name, _, arg = spec.partition(":")
    if name == "monoenergetic" and not arg:
        return Monoenergetic()
    if name == "bremsstrahlung" and not arg:
        return Bremsstrahlung()
    if name == "wien":
        try:
            theta_eq = _parse_number(arg or "1")
        except ValueError as exc:
            raise ConfigError("spectrum", str(exc))
        if theta_eq <= 0:
            raise ConfigError("spectrum", f"wien temperature must be positive, got {arg}")
        try:
            return equilibrium_spectrum(COMPTONIZATION, n_r=1, theta_eq=theta_eq)
        except (ZeroDivisionError, OverflowError):
            raise ConfigError("spectrum", f"wien temperature {arg} is out of floating-point range")
    raise ConfigError(
        "spectrum",
        f"unknown spectrum {spec!r}; expected monoenergetic, bremsstrahlung, or wien:THETA",
    )


def _parse_theta_spec(spec: str, order: int) -> tuple:
    kind, _, arg = spec.partition(":")
    if kind in ("cf", "taylor"):
        if kind == "cf" and not arg:
            return ("cf", None)
        if arg.isdecimal() and 0 <= int(arg) <= order:
            return (kind, int(arg))
        raise ConfigError("theta", f"{kind} level must lie in 0..{order}, got {arg!r}")
    if kind == "constant":
        try:
            value = _parse_number(arg)
        except ValueError as exc:
            raise ConfigError("theta", str(exc))
        if value <= 0:
            raise ConfigError("theta", f"constant temperature must be positive, got {arg}")
        return ("constant", value)
    raise ConfigError(
        "theta",
        f"unknown temperature spec {spec!r}; expected cf, cf:N, taylor:N, or constant:V",
    )


def _parse_levels(text: str, order: int, field_name: str) -> tuple:
    if not text:
        return ()
    levels = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdecimal() or not 0 <= int(part) <= order:
            raise ConfigError(field_name, f"levels must be integers in 0..{order}, got {part!r}")
        levels.append(int(part))
    return tuple(dict.fromkeys(levels))


# ---------------------------------------------------------------------------
# artifact writers: the only code that writes files


@contextmanager
def _opened(path):
    """Open an output file; a failed open or write is an out_dir error (exit 1)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot write {path}: {exc}")


def write_json(data, path) -> None:
    """Write an artifact as sorted, indented JSON and a final newline.
    Streamed: one json.dumps string holds every encoded piece of the run
    manifest at once, and that set the peak memory of a whole run."""
    with _opened(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path, header: str, rows) -> None:
    """Write a CSV table: the header line, then one line per row with every
    cell as format(v, ".6g") (integers up to 6 digits print as written).
    ``rows`` may be a generator: each line is written as it is formatted."""
    with _opened(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(format(v, ".6g") for v in row) + "\n" for row in rows)


def write_snapshot_csv(sol: PdeSolution, y: float, path) -> None:
    with _opened(path) as fh:
        fh.write(sol.snapshot_csv(y))


def write_run_manifest(sol: PdeSolution, path, snapshot_files, timestamp=None) -> None:
    data = {**sol.to_json_dict(), "snapshot_files": snapshot_files}
    if timestamp is not None:
        data["written_at"] = timestamp
    write_json(data, path)


# ---------------------------------------------------------------------------
# the run: every artifact of one config


class Run:
    """The pipeline artifacts of one config, each built once, on first use.

    The chain is fixed: derivative table -> fraction -> selected level ->
    driver -> solve.  Every subcommand writes from one instance, so
    ``reproduce`` builds each artifact once, the solve included, and a
    command that needs none of them builds none.
    """

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def out(self) -> Path:
        out = Path(self.config.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot make {out}: {exc}")
        return out

    @cached_property
    def spectrum(self):
        return _parse_spectrum(self.config.spectrum)

    @cached_property
    def table(self) -> DerivativeTable:
        """The derivative pipeline needs exact initial moments."""
        if not hasattr(self.spectrum, "moment"):
            raise ConfigError(
                "spectrum",
                f"{self.config.spectrum!r} has no exact derivative table; "
                "use monoenergetic or bremsstrahlung",
            )
        return theta_derivatives_comptonization(self.spectrum, self.config.M)

    @cached_property
    def fraction(self) -> ContinuedFraction:
        return cf_coefficients(self.table)

    @cached_property
    def selection(self):
        fraction = self.fraction  # a spectrum without a table fails here first
        theta_eq = equilibrium_temperature(self.spectrum).value
        return select_approximant(fraction, self.config.y_max, theta_eq=theta_eq)

    @cached_property
    def theta(self) -> RationalForm:
        """Driving temperature per the theta spec; solve_transport certifies it."""
        kind, arg = _parse_theta_spec(self.config.theta, self.config.M)
        if kind == "constant":
            return RationalForm.constant(arg)
        if kind == "taylor":
            return taylor_form(self.table, arg)
        level = self.selection.level if arg is None else arg
        return to_rational(self.fraction, level)

    @cached_property
    def solution(self) -> PdeSolution:
        config, theta = self.config, self.theta
        try:
            grid = Grid.log_spaced(
                cells=config.grid_cells,
                x_min=config.grid_x_min,
                x_max=config.grid_x_max,
                y_end=config.y_max,
                snapshots=config.snapshots,
            )
        except ValueError as exc:  # past _validate, only edges too close to increase in floats
            raise ConfigError("grid_cells", f"no grid of {config.grid_cells} log-spaced cells on"
                              f" [{config.grid_x_min}, {config.grid_x_max}] in floats: {exc}")
        return solve_transport(self.spectrum, theta, grid, rtol=config.rtol)

    @cached_property
    def report(self) -> VerificationReport:
        """theta_out = I_4(y)/I_4(0) starts at 1, so only a driver that does can match it."""
        if self.theta(0.0) != 1.0:
            raise ConfigError("theta", f"verify needs theta(0) = 1, got {self.theta(0.0):g}")
        return self_consistency(self.solution, self.theta, tolerance=self.config.tolerance)


# ---------------------------------------------------------------------------
# subcommands


def cmd_derivs(run: Run) -> int:
    config, table, out = run.config, run.table, run.out
    write_json(table.to_json_dict(), out / f"derivs_{config.tag}.json")
    write_table(out / f"derivs_{config.tag}.csv", "n,theta_deriv",
                [(n, float(value)) for n, value in enumerate(table.values)])
    print(f"wrote derivative table (order {table.order}) to {out}")
    return EXIT_OK


def cmd_cf(run: Run) -> int:
    config, table, cf, selection = run.config, run.table, run.fraction, run.selection
    cf_levels = sorted(_parse_levels(config.cf_n, cf.truncation, "cf_n") or (selection.level,))
    out = run.out
    write_json(cf.to_json_dict(), out / f"cf_{config.tag}.json")
    write_table(out / f"cf_{config.tag}.csv", "n,c",
                [(n, float(c)) for n, c in enumerate(cf.coefficients)])
    write_json(selection.to_json_dict(), out / f"selection_{config.tag}.json")

    ys = np.linspace(0.0, config.y_max, config.samples).tolist()
    # the selection has scanned every level once; its reports are reused
    reports = {level: selection.candidates[level].report for level in cf_levels}

    write_json(
        {
            "schema": "compfrac.defect-sweep/1",
            "levels": {str(lv): report.to_json_dict() for lv, report in reports.items()},
        },
        out / f"defects_{config.tag}.json",
    )
    def cf_value(level, y):
        try:
            return cf_eval(cf, level, y)
        except PoleHit:  # sampled on a pole
            return float("nan")

    # the curves are streamed: samples x levels rows are never all held
    write_table(out / f"cf_curves_{config.tag}.csv", "y,value,N",
                ((y, cf_value(level, y), level) for level in cf_levels for y in ys))
    taylor_levels = _parse_levels(config.taylor_n, table.order, "taylor_n")
    if taylor_levels:
        write_table(out / f"taylor_curves_{config.tag}.csv", "y,value,N",
                    ((y, taylor_eval(table, level, y), level)
                     for level in sorted(taylor_levels) for y in ys))

    defect_total = sum(len(r.poles) + len(r.zeros) for r in reports.values())
    print(
        f"wrote continued-fraction data to {out}: selected level {selection.level}"
        f" ({selection.note}); {defect_total} defect(s) across emitted levels"
    )
    return EXIT_OK


def cmd_solve(run: Run) -> int:
    """Snapshots and run manifest of the run's solve."""
    config, sol, out = run.config, run.solution, run.out
    snapshot_files = {}
    for k, (y, _) in enumerate(sol.snapshots):
        name = f"snapshot_{config.tag}_{k:02d}.csv"
        write_snapshot_csv(sol, y, out / name)
        snapshot_files[f"{y:.6g}"] = name
    write_run_manifest(sol, out / f"run_{config.tag}.json", snapshot_files,
                       datetime.now(timezone.utc).isoformat())
    print(
        f"solved to y = {config.y_max:g} in {sol.stats['steps_accepted']} steps"
        f" ({sol.stats['steps_rejected']} rejected); outputs in {out}"
    )
    return EXIT_OK


def cmd_verify(run: Run) -> int:
    """Self-consistency report of the run's solve against its driving temperature."""
    config, report, out = run.config, run.report, run.out
    write_json(report.to_json_dict(), out / f"verify_{config.tag}.json")
    write_table(out / f"verify_{config.tag}.csv", "y,theta_in,theta_out,rel_dev", report.rows)
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"self-consistency {verdict}: max |theta_out - theta_in| / theta_in"
        f" = {report.max_rel_dev:.3%} at y = {report.argmax_y:g}"
        f" (tolerance {report.tolerance:.3%}); drifts: number {report.number_drift:.3e},"
        f" energy {report.energy_drift:.3e}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_reproduce(run: Run) -> int:
    """All stages on one run; its one transport solve feeds the outputs and verify."""
    run.selection, run.report  # every artifact built and checked before the first file
    cmd_derivs(run)
    cmd_cf(run)
    cmd_solve(run)
    return cmd_verify(run)


_COMMANDS = {
    "derivs": (cmd_derivs, "exact initial derivative table"),
    "cf": (cmd_cf, "continued-fraction coefficients, curves, defect reports"),
    "solve": (cmd_solve, "transport solve with snapshot output"),
    "verify": (cmd_verify, "solve and compare recovered against driving temperature"),
    "reproduce": (cmd_reproduce, "full pipeline from a shipped scenario config"),
}


_SCENARIOS = ("monoenergetic", "bremsstrahlung")


def _shipped_config(name: str) -> dict:
    ref = resources.files("compfrac") / "configs" / f"{name}.cfg"
    with resources.as_file(ref) as path:
        return load_config_file(path)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("args", message)


def _config_flags() -> argparse.ArgumentParser:
    """The config flags every subcommand takes, as a parent parser."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="flat key = value config file")
    flags.add_argument("--spectrum", help="monoenergetic | bremsstrahlung | wien:THETA")
    flags.add_argument("--M", help=f"derivative order, {_span('M')} (default {_num(RunConfig.M)})")
    flags.add_argument("--y-max", help=f"evolution horizon, at most {_span('y_max')}"
                       f" (default {_num(RunConfig.y_max)})")
    flags.add_argument("--theta", help="cf | cf:N | taylor:N | constant:V")
    flags.add_argument("--grid-cells", help=f"cell count, {_span('grid_cells')}"
                       f" (default {_num(RunConfig.grid_cells)})")
    flags.add_argument("--grid-x-min")
    flags.add_argument("--grid-x-max")
    flags.add_argument("--snapshots", help=f"snapshot count, {_span('snapshots')}, uniform in [0, y_max]")
    flags.add_argument("--rtol", help=f"relative tolerance of the adaptive solver step, {_span('rtol')}")
    flags.add_argument("--tolerance", help="self-consistency pass threshold")
    flags.add_argument("--taylor-N", dest="taylor_n", help="comma list of series levels")
    flags.add_argument("--cf-N", dest="cf_n", help="comma list of fraction levels")
    flags.add_argument("--samples", help=f"curve sampling density in y, {_span('samples')}")
    flags.add_argument("--out-dir")
    flags.add_argument("--label", help="output filename tag, no path (default: spectrum name)")
    return flags


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="compfrac",
        description="temperature resummation and self-consistent photon transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _config_flags()
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, parents=[flags])
        if name == "reproduce":
            cmd.add_argument("scenario", choices=_SCENARIOS)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        command = args.pop("command")
        scenario = args.pop("scenario", None)
        config_path = args.pop("config", None)
        file_values = {}
        if scenario is not None:
            file_values.update(_shipped_config(scenario))
        if config_path is not None:
            file_values.update(load_config_file(config_path))
        handler, _ = _COMMANDS[command]
        return handler(Run(build_config(file_values, args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
