"""Tests for the command-line front end.

Everything runs in-process through main(argv) so exit codes and stderr
text are asserted directly; coarse grids keep the solver paths fast.
Determinism matters for the emitted artifacts: everything except the
run manifest (which carries a timestamp) must be byte-identical across
repeat runs.
"""

import dataclasses
import filecmp
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import compfrac
from compfrac import cli, contfrac, moments
from compfrac.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFICATION,
    ConfigError,
    Run,
    RunConfig,
    _parse_levels,
    _parse_number,
    _parse_spectrum,
    _parse_theta_spec,
    _shipped_config,
    build_config,
    load_config_file,
    main,
)
from compfrac.contfrac import (
    ContinuedFraction, PoleHit, cf_coefficients, find_defects, taylor_form, to_rational,
)
from compfrac.moments import DerivativeTable, theta_derivatives_comptonization
from compfrac.spectra import (
    Bremsstrahlung,
    EquilibriumSpectrum,
    Monoenergetic,
    NumericalFailure,
    UnsupportedParams,
)
from compfrac.transport import (
    Grid,
    NonFiniteState,
    NonPositiveTemperature,
    PositivityViolation,
    SnapshotMissing,
    StepSizeUnderflow,
    solve_transport,
)
from compfrac.verify import self_consistency


# ---------------------------------------------------------------------------
# configuration layer


def test_parse_number_accepts_ratios():
    assert _parse_number("4/3") == pytest.approx(4.0 / 3.0)
    assert _parse_number("1e-5") == 1e-5
    with pytest.raises(ValueError):
        _parse_number("four")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "spectrum = bremsstrahlung\n"
        "grid-cells = 123\n"
        "Y-MAX = 1.5\n"
        "cf-N = 4,8\n"
    )
    values = load_config_file(path)
    assert values == {
        "spectrum": "bremsstrahlung",
        "grid_cells": "123",
        "y_max": "1.5",
        "cf_n": "4,8",
    }


def test_load_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gird_cells = 100\n")
    with pytest.raises(ConfigError) as exc:
        load_config_file(path)
    assert exc.value.field_name == "gird_cells"


def test_load_config_file_rejects_bare_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError) as exc:
        load_config_file(path)
    assert exc.value.field_name == "config"


def test_flags_override_file():
    config = build_config({"grid_cells": "100", "rtol": "1e-5"}, {"grid_cells": "200"})
    assert config.grid_cells == 200
    assert config.rtol == 1e-5
    # None flag values mean "not given" and must not mask the file
    config = build_config({"M": "12"}, {"M": None})
    assert config.M == 12


def test_tag_prefers_label():
    assert RunConfig().tag == "monoenergetic"
    assert RunConfig(spectrum="wien:0.5", label="").tag == "wien"
    assert RunConfig(label="night-run").tag == "night-run"


@pytest.mark.parametrize(
    "field,value",
    [
        ("M", "65"),
        ("M", "-1"),
        ("y_max", "0"),
        ("y_max", "1e9"),
        ("grid_cells", "4"),
        ("grid_cells", "150001"),
        ("grid_x_min", "60"),
        ("snapshots", "1"),
        ("snapshots", "50001"),
        ("rtol", "0.5"),
        ("rtol", "0"),
        ("rtol", "1e-15"),
        ("tolerance", "0"),
        ("samples", "1"),
        ("samples", "500001"),
    ],
)
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError) as exc:
        build_config({field: value})
    assert exc.value.field_name in (field, "grid_x_min")


@pytest.mark.parametrize(
    "flag, field, limit",
    [("--grid-cells", "grid_cells", 150_000), ("--snapshots", "snapshots", 50_000),
     ("--samples", "samples", 500_000)],
)
def test_count_above_its_limit_exits_1(tmp_path, capsys, flag, field, limit):
    # the limit keeps every accepted count's run bounded in time, and is itself accepted
    assert getattr(build_config({field: str(limit)}), field) == limit
    out = tmp_path / "out"
    code = main(["reproduce", "monoenergetic", flag, str(limit + 1), "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}: need ")
    assert not out.exists()


def test_rtol_below_its_limit_exits_1(tmp_path, capsys):
    # at 1e-14 the pulse run finishes (README); 1e-15 is refused, though the
    # ESDIRK stepper solves the pulse there in about 3.8 s (README)
    assert build_config({"rtol": "1e-14"}).rtol == 1e-14
    out = tmp_path / "out"
    code = main(["reproduce", "monoenergetic", "--rtol", "1e-15", "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: rtol: need 1e-14..0.1")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fields",
    [
        # the three products the single limits leave open, each well past its bound
        (["--grid-cells", "150000", "--snapshots", "50000"], "grid_cells, snapshots"),
        (["--grid-cells", "150000", "--rtol", "1e-14"], "grid_cells, rtol, snapshots"),
        (["--samples", "500000", "--cf-N", ",".join(map(str, range(25)))], "samples, cf_n, taylor_n"),
        # and one past each: 401 x 50,000 values, 9 curve levels, 402 cells at the rtol floor
        (["--grid-cells", "401", "--snapshots", "50000"], "grid_cells, snapshots"),
        (["--samples", "500000", "--cf-N", "16,18,20,22,24"], "samples, cf_n, taylor_n"),
        (["--grid-cells", "402", "--rtol", "1e-14"], "grid_cells, rtol, snapshots"),
    ],
)
def test_joint_bound_exceeded_exits_1(tmp_path, capsys, argv, fields):
    out = tmp_path / "out"
    code = main(["reproduce", "monoenergetic", *argv, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {fields}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "values",
    [
        {"M": "0", "cf_n": "", "taylor_n": ""}, {"M": "64"},
        {"grid_cells": "8"}, {"grid_cells": "150000"}, {"snapshots": "2"}, {"snapshots": "50000"}, {"samples": "2"}, {"samples": "500000"},
        {"rtol": "1e-14"}, {"rtol": "0.1"}, {"y_max": "1e6"},
        # the corners the joint bounds sit at, each exactly on or just inside its bound
        {"grid_cells": "400", "snapshots": "50000"},
        {"samples": "500000", "cf_n": "18,20,22,24", "taylor_n": "4,8,12,24"},
        {"samples": "500000", "cf_n": "24,24,24", "taylor_n": "0,1,2,3,4,5,6"},
        {"grid_cells": "401", "rtol": "1e-14"},
    ],
)
def test_limit_corners_are_accepted(values):
    # on the defaults and on the shipped pulse config, where the corners were measured
    build_config({}, values)
    build_config(_shipped_config("monoenergetic"), values)


def _log_counts(lo, hi):
    """Counts from lo - 1 to hi + 1, log-uniform, so small counts are drawn as often as large."""
    return st.floats(math.log(lo - 1), math.log(hi + 1)).map(lambda t: str(round(math.exp(t))))


@st.composite
def _raw_configs(draw):
    order = draw(st.integers(-1, 65))
    levels = st.lists(st.integers(0, max(order, 0)), max_size=max(order, 0) + 1)
    return {
        "M": str(order),
        "grid_cells": draw(_log_counts(8, 150_000)),
        "snapshots": draw(_log_counts(2, 50_000)),
        "samples": draw(_log_counts(2, 500_000)),
        "rtol": repr(10.0 ** draw(st.floats(-15.0, 0.0))),
        "y_max": repr(10.0 ** draw(st.floats(-13.0, 7.0))),
        "cf_n": ",".join(map(str, draw(levels))),
        "taylor_n": ",".join(map(str, draw(levels))),
    }


@settings(max_examples=400, deadline=None)
@given(_raw_configs())
@example({"grid_cells": "400", "snapshots": "50000", "rtol": "1e-6"})
@example({"grid_cells": "401", "snapshots": "21", "rtol": "1e-14"})
def test_every_accepted_config_lies_inside_every_bound(raw):
    # pure: build_config starts no run, so the whole accepted space can be swept
    try:
        config = build_config(raw)
    except ConfigError:
        return
    assert 0 <= config.M <= 64
    assert 8 <= config.grid_cells <= 150_000
    assert 2 <= config.snapshots <= 50_000
    assert 2 <= config.samples <= 500_000
    assert 1e-14 <= config.rtol <= 0.1
    assert config.y_max <= 1e6
    cf_levels = len(set(_parse_levels(config.cf_n, config.M, "cf_n"))) or 1
    taylor_levels = len(set(_parse_levels(config.taylor_n, config.M, "taylor_n")))
    assert config.grid_cells * config.snapshots <= 2e7
    assert config.samples * (cf_levels + taylor_levels) <= 4e6
    assert config.grid_cells * (687 * (1e-6 / config.rtol) ** (1 / 3) + config.snapshots) <= 1.28e8


def test_readme_limits_paragraph_states_every_bound():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("`--M` must lie in", 1)[1].split("### Exit codes", 1)[0]
    stated = {float(token.replace(",", ""))
              for token in re.findall(r"\d[\d,]*(?:\.\d+)?(?:e[-+]?\d+)?", paragraph)}
    bounds = [b for pair in cli._BOUNDS.values() for b in pair if b is not None]
    assert len(bounds) == 14  # five ranges, the y_max limit and three joint bounds
    assert set(bounds) <= stated, set(bounds) - stated


def test_parse_spectrum():
    assert isinstance(_parse_spectrum("monoenergetic"), Monoenergetic)
    assert isinstance(_parse_spectrum("bremsstrahlung"), Bremsstrahlung)
    wien = _parse_spectrum("wien:0.5")
    assert isinstance(wien, EquilibriumSpectrum)
    assert wien.theta == Fraction(1, 2)
    for bad in ("wien:-1", "wien:1e-300", "wien:1e300", "planck", "monoenergetic:4"):
        with pytest.raises(ConfigError):
            _parse_spectrum(bad)


def test_parse_theta_spec():
    assert _parse_theta_spec("cf", 24) == ("cf", None)
    assert _parse_theta_spec("cf:12", 24) == ("cf", 12)
    assert _parse_theta_spec("taylor:8", 24) == ("taylor", 8)
    kind, value = _parse_theta_spec("constant:4/3", 24)
    assert kind == "constant"
    assert value == pytest.approx(4.0 / 3.0)
    # "²" is a digit to str.isdigit but not a decimal that int() reads
    for bad in ("cf:30", "taylor:abc", "cf:²", "taylor:²", "constant:-2", "spline"):
        with pytest.raises(ConfigError):
            _parse_theta_spec(bad, 24)


def test_parse_levels():
    assert _parse_levels("", 24, "cf_n") == ()
    assert _parse_levels("4, 8,12", 24, "cf_n") == (4, 8, 12)
    assert _parse_levels("4,4,8", 24, "cf_n") == (4, 8)
    for bad in ("25", "x", "-3", "²"):
        with pytest.raises(ConfigError):
            _parse_levels(bad, 24, "cf_n")


def test_shipped_configs_are_valid():
    for name in ("monoenergetic", "bremsstrahlung"):
        values = _shipped_config(name)
        config = build_config(values)
        assert config.spectrum == name
        assert config.M == 24
        assert config.out_dir == f"out/{name}"
    # the soft reservoir needs the deeper cutoff
    assert build_config(_shipped_config("bremsstrahlung")).grid_x_min == 1e-5


# ---------------------------------------------------------------------------
# exit codes


def test_config_error_exit(tmp_path, capsys):
    assert main(["solve", "--M", "abc", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["a/b", "..", "."])
def test_label_must_be_a_file_name(tmp_path, capsys, label):
    code = main(["derivs", "--M", "1", "--label", label, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: label:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_spectrum_exit(tmp_path, capsys):
    code = main(["derivs", "--spectrum", "planck", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "spectrum" in capsys.readouterr().err


def test_missing_command_exit(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["reproduce", "bogus"]) == EXIT_CONFIG
    capsys.readouterr()


def test_wien_has_no_derivative_table(tmp_path, capsys):
    code = main(["derivs", "--spectrum", "wien:1", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "exact derivative table" in capsys.readouterr().err


def test_numerical_failure_exit(tmp_path, capsys):
    # the level-5 convergent has a pole inside [0, 2]
    code = main(
        ["verify", "--theta", "cf:5", "--M", "8", "--grid-cells", "16",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "level, message",
    [
        # a pole next to a zero of P near y = 0.110: a Froissart doublet
        # that float samples of the level step over
        (48, "level 48 (monoenergetic(x0=4, n0=1)) has a pole of multiplicity 1"
             " at y = 0.11000465"),
        (49, "level 49 (monoenergetic(x0=4, n0=1)) has a zero of multiplicity 1"
             " at y = 1.18845027"),
    ],
    ids=["level48_pole", "level49_zero"],
)
def test_explicit_level_with_defect_refused(tmp_path, capsys, level, message):
    code = main(
        ["solve", "--M", str(level), "--theta", f"cf:{level}", "--grid-cells", "32",
         "--rtol", "1e-3", "--snapshots", "2", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_NUMERICAL
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # refused before any step


def test_explicit_taylor_level_with_zero_refused(tmp_path, capsys):
    # 1 + 2y - 6y^2 vanishes at (1 + sqrt 7)/6: the Taylor form is
    # certified by the same exact root count as a fraction level
    code = main(
        ["solve", "--theta", "taylor:2", "--grid-cells", "32", "--rtol", "1e-3",
         "--snapshots", "2", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_NUMERICAL
    assert ("Taylor partial sum, level 2 (monoenergetic(x0=4, n0=1)) has a zero of"
            " multiplicity 1 at y = 0.6076252185107651" in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())
    # reproduce builds table, fraction and selection first, and still writes none of them
    out = tmp_path / "out"
    assert main(["reproduce", "monoenergetic", "--theta", "taylor:2", "--grid-cells", "16",
                 "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()


def test_selection_counts_zeros(tmp_path):
    # level 49 at M = 49 has a zero of P near y = 1.188 and no pole
    code = main(["cf", "--M", "49", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sel = json.loads((tmp_path / "selection_monoenergetic.json").read_text())
    level = sel["candidates"][49]
    assert level["level"] == 49
    assert level["defect_count"] == 1
    assert level["pole_locations"] == []
    assert level["zero_locations"] == [pytest.approx(1.18845, abs=1e-5)]
    assert level["tail_value"] is None


def test_explicit_clean_level_solves(tmp_path):
    code = main(
        ["solve", "--M", "8", "--theta", "cf:4", "--grid-cells", "16",
         "--rtol", "1e-3", "--snapshots", "2", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert (tmp_path / "run_monoenergetic.json").is_file()


@pytest.mark.parametrize(
    "error, builtin_base",
    [
        (PoleHit(0.75, None, "theta cf:3 has a pole at y = 0.75"), ArithmeticError),
        (NonPositiveTemperature("theta cf:4 is -0.5 at y = 0"), ValueError),
        (PositivityViolation("solution dips below zero at y = 0.5 even at step 1.0e-12"),
         ArithmeticError),
        (StepSizeUnderflow("step fell to 1.000e-12 at y = 0.5 (limit 1.0e-12)"), ArithmeticError),
        (NonFiniteState("step error norm is nan at y = 0.5"), ArithmeticError),
        (SnapshotMissing("no snapshot at y = 0.5; stored: [0.0, 2.0]"), KeyError),
        (UnsupportedParams("the closure needs Comptonization, not i=1"), ValueError),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else v.__name__,
)
def test_every_numerical_failure_exits_2(tmp_path, monkeypatch, capsys, error, builtin_base):
    # each failure carries the base exit 2 is read from, next to the builtin
    # base its library callers catch; nothing is written and no out_dir made
    assert isinstance(error, NumericalFailure) and isinstance(error, builtin_base)

    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve_transport", failing_solve)
    out = tmp_path / "out"
    assert main(["solve", "--theta", "constant:1", "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [f"numerical failure: {error}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--spectrum", "wien:1e-300"], EXIT_CONFIG, "config error: spectrum: "),
        (["--spectrum", "wien:1e300"], EXIT_CONFIG, "config error: spectrum: "),
        # cell centers sqrt(x_lo x_hi) that overflow or underflow, and a profile
        # that overflows at a representable center, are refused before any step
        (["--grid-x-max", "1e300"], EXIT_NUMERICAL,
         "numerical failure: grid cell 4 has center sqrt(3.16228e+148 * 2.37137e+186) = inf"),
        (["--grid-x-min", "1e-300"], EXIT_NUMERICAL,
         "numerical failure: grid cell 0 has center sqrt(1e-300 * 5.15669e-263) = 0.0"),
        (["--spectrum", "bremsstrahlung", "--grid-x-min", "1e-200"], EXIT_NUMERICAL,
         "numerical failure: grid cell 0 has center sqrt(1e-200 * 1.63069e-175) = 0.0"),
        (["--spectrum", "bremsstrahlung", "--grid-x-min", "1e-150"], EXIT_NUMERICAL,
         "numerical failure: initial condition is inf at x = 3.02821e-141 (cell 0)"),
        # an initial condition with no photons on the grid: the pulse at x = 4
        # lies below it, and the tiny Wien spectrum underflows to zero
        (["--grid-x-min", "10", "--grid-x-max", "50"], EXIT_NUMERICAL,
         "numerical failure: initial condition has no photons on the grid x in [10, 50]"),
        (["--spectrum", "wien:1e-100"], EXIT_NUMERICAL,
         "numerical failure: initial condition has no photons on the grid x in [0.001, 50]"),
        (["--y-max", "1e300"], EXIT_CONFIG, "config error: y_max"),
        # snapshot spacing at or below the solver's step floor
        (["--y-max", "1e-12"], EXIT_CONFIG, "config error: y_max"),
        (["--y-max", "1e-300"], EXIT_CONFIG, "config error: y_max"),
        (["--cf-N", "²"], EXIT_CONFIG, "config error: cf_n"),
        # beyond float range: float(Fraction) overflows
        (["--theta", "constant:1e400"], EXIT_CONFIG, "config error: theta: "),
        (["--y-max", "1e400"], EXIT_CONFIG, "config error: y_max: "),
        (["--spectrum", "wien:1e400"], EXIT_CONFIG, "config error: spectrum: "),
        (["--config", "y_max_overflow.cfg"], EXIT_CONFIG, "config error: y_max: "),
        # files that cannot be read or made
        (["--config", "missing.cfg"], EXIT_CONFIG, "config error: config: "),
        (["--config", "directory.cfg"], EXIT_CONFIG, "config error: config: "),
        (["--config", "latin1.cfg"], EXIT_CONFIG, "config error: config: "),
        (["--out-dir", "/dev/null/x"], EXIT_CONFIG, "config error: out_dir: "),
        (["--label", "blocked"], EXIT_CONFIG, "config error: out_dir: cannot write "),
        # log-spaced edges too close to increase strictly in floats
        (["--grid-x-min", "0.5", "--grid-x-max", "0.5000000000000001"], EXIT_CONFIG,
         "config error: grid_cells: no grid of 8 log-spaced cells on [0.5, 0.5000000000000001]"
         " in floats: grid edges must increase strictly"),
        (["--grid-x-min", "1", "--grid-x-max", "1.000000000000001", "--grid-cells", "400"],
         EXIT_CONFIG, "config error: grid_cells: no grid of 400 log-spaced cells on"),
    ],
    ids=["wien_tiny", "wien_huge", "x_max_huge", "x_min_tiny", "freefree_x_min_tiny",
         "freefree_profile_overflow", "pulse_off_grid", "wien_underflow", "y_max_huge",
         "y_max_tiny", "y_max_subnormal",
         "cf_n_superscript", "theta_overflow", "y_max_overflow", "wien_overflow",
         "config_y_max_overflow", "config_missing", "config_directory", "config_not_utf8",
         "out_dir_under_file", "write_blocked_by_directory", "grid_too_narrow",
         "grid_too_narrow_for_400_cells"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_inputs_exit_cleanly(tmp_path, capsys, flags, code, message):
    (tmp_path / "y_max_overflow.cfg").write_text("y-max = 1e400\n", encoding="utf-8")
    (tmp_path / "directory.cfg").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"label = caf\xe9\n")
    (tmp_path / "snapshot_blocked_00.csv").mkdir()  # a file path the writer cannot open
    flags = [str(tmp_path / f) if f.endswith(".cfg") else f for f in flags]
    argv = ["solve", "--theta", "constant:1", "--grid-cells", "8", "--out-dir", str(tmp_path)]
    assert main([*argv, *flags]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--label", "a\0b"], "label"),
        (["--out-dir", "out\0b"], "out_dir"),
        (["--config", "a\0b.cfg"], "config"),
        (["--config", "label.cfg"], "label"),
        (["--config", "out_dir.cfg"], "out_dir"),
    ],
    ids=["label", "out_dir", "config", "label_in_config", "out_dir_in_config"],
)
def test_nul_byte_in_a_path_is_a_config_error(tmp_path, monkeypatch, capsys, flags, field):
    monkeypatch.chdir(tmp_path)
    Path("label.cfg").write_text("label = a\0b\n", encoding="utf-8")
    Path("out_dir.cfg").write_text("out_dir = out\0b\n", encoding="utf-8")
    assert main(["derivs", "--M", "1", *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["label.cfg", "out_dir.cfg"]


@pytest.mark.parametrize(
    "argv, x_range",
    [
        (["verify", "--grid-x-min", "10", "--grid-x-max", "50"], "[10, 50]"),
        (["verify", "--spectrum", "wien:1e-100", "--theta", "constant:1"], "[0.001, 50]"),
        (["reproduce", "monoenergetic", "--grid-x-min", "10", "--grid-x-max", "50"], "[10, 50]"),
    ],
    ids=["verify_pulse_off_grid", "verify_wien_underflow", "reproduce_pulse_off_grid"],
)
def test_verify_without_photons_on_the_grid_exits_cleanly(tmp_path, capsys, argv, x_range):
    # with no photons the output temperature I_4(y)/I_4(0) would divide by
    # zero; the solve refuses the initial condition first, in one line,
    # and before any file is written or the output directory made
    out = tmp_path / "out"
    assert main([*argv, "--grid-cells", "8", "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure: initial condition has no photons on the grid x in {x_range}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve"], ["reproduce", "monoenergetic"]],
                         ids=["solve", "reproduce"])
def test_narrow_grid_is_refused_before_out_dir(tmp_path, capsys, command):
    # the grid's own rule refuses the edges; the command names the field
    out = tmp_path / "out"
    argv = [*command, "--grid-x-min", "0.5", "--grid-x-max", "0.5000000000000001",
            "--grid-cells", "8", "--out-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: grid_cells: ")
    assert not out.exists()


def test_verification_failure_exit(tmp_path, capsys):
    code = main(
        ["verify", "--spectrum", "bremsstrahlung", "--theta", "constant:1",
         "--grid-cells", "64", "--rtol", "1e-4", "--snapshots", "5",
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_VERIFICATION
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_bremsstrahlung.json").read_text())
    assert report["passed"] is False


def test_verify_pass_exit(tmp_path, capsys):
    code = main(
        ["verify", "--grid-cells", "100", "--rtol", "1e-4", "--snapshots", "5",
         "--tolerance", "0.08", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    assert "pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify_monoenergetic.json").read_text())
    assert report["passed"] is True
    assert report["tolerance"] == 0.08


def test_verify_refuses_driver_not_starting_at_one(tmp_path, capsys):
    # theta_out = I_4(y)/I_4(0) starts at 1, so on the exact steady state of
    # constant:2 it would read 50% off; verify and reproduce refuse the driver
    # before writing anything, while solve still runs it
    steady = ["--spectrum", "wien:2", "--theta", "constant:2", "--grid-cells", "32"]
    assert main(["verify", *steady, "--out-dir", str(tmp_path / "v")]) == EXIT_CONFIG
    assert main(["reproduce", "monoenergetic", "--theta", "constant:2",
                 "--out-dir", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: theta: ") for line in err)
    assert not (tmp_path / "v").exists() and not (tmp_path / "r").exists()
    assert main(["solve", *steady, "--out-dir", str(tmp_path / "s")]) == EXIT_OK
    assert not list((tmp_path / "s").glob("verify_*"))
    assert main(["verify", "--spectrum", "wien:1", "--theta", "constant:1", "--grid-cells", "32",
                 "--out-dir", str(tmp_path / "w")]) == EXIT_OK
    assert json.loads((tmp_path / "w" / "verify_wien.json").read_text())["passed"] is True


# ---------------------------------------------------------------------------
# artifacts


def test_derivs_outputs(tmp_path):
    code = main(
        ["derivs", "--spectrum", "bremsstrahlung", "--M", "2",
         "--out-dir", str(tmp_path), "--label", "ff"]
    )
    assert code == EXIT_OK
    table = DerivativeTable.load_json(tmp_path / "derivs_ff.json")
    assert table.values == (Fraction(1), Fraction(-6), Fraction(132))
    lines = (tmp_path / "derivs_ff.csv").read_text().splitlines()
    assert lines[0] == "n,theta_deriv"
    assert lines[1:] == ["0,1", "1,-6", "2,132"]


def test_derivs_order_zero(tmp_path):
    assert main(["derivs", "--M", "0", "--out-dir", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "derivs_monoenergetic.csv").read_text().splitlines()
    assert lines == ["n,theta_deriv", "0,1"]


def test_derivs_deepest_order(tmp_path):
    # the largest order the CLI accepts finishes in bounded time
    assert main(["derivs", "--M", "64", "--out-dir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "derivs_monoenergetic.csv").read_text().splitlines()
    assert len(rows) == 1 + 65


def test_derivs_full_depth(tmp_path):
    code = main(["derivs", "--spectrum", "monoenergetic", "--M", "24",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "derivs_monoenergetic.csv").read_text().splitlines()
    assert len(rows) == 1 + 25
    assert rows[1 + 1] == "1,2"
    # the CSV carries 6 significant digits; the JSON keeps the exact value
    table = DerivativeTable.load_json(tmp_path / "derivs_monoenergetic.json")
    assert table[24] == Fraction(5201540992561738999575624473829301026816)
    assert float(rows[1 + 24].split(",")[1]) == pytest.approx(float(table[24]), rel=1e-5)


def test_cf_outputs(tmp_path):
    code = main(
        ["cf", "--M", "12", "--cf-N", "1,4,5,12", "--taylor-N", "4",
         "--samples", "9", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    sel = json.loads((tmp_path / "selection_monoenergetic.json").read_text())
    assert sel["schema"] == "compfrac.selection/2"
    assert sel["level"] == 12
    defects = json.loads((tmp_path / "defects_monoenergetic.json").read_text())
    assert set(defects["levels"]) == {"1", "4", "5", "12"}
    # the written reports are the selection's; each must equal a fresh
    # scan of a freshly built fraction, poles included
    cf = cf_coefficients(theta_derivatives_comptonization(Monoenergetic(), 12))
    for n in (1, 4, 5, 12):
        fresh = find_defects(to_rational(cf, n), 2.0).to_json_dict()
        assert defects["levels"][str(n)] == fresh
    assert [len(defects["levels"][n]["poles"]) for n in ("1", "4", "5", "12")] == [1, 0, 1, 0]
    curves = (tmp_path / "cf_curves_monoenergetic.csv").read_text().splitlines()
    assert curves[0] == "y,value,N"
    assert len(curves) == 1 + 4 * 9
    taylor = (tmp_path / "taylor_curves_monoenergetic.csv").read_text().splitlines()
    assert len(taylor) == 1 + 9
    cf_csv = (tmp_path / "cf_monoenergetic.csv").read_text().splitlines()
    assert cf_csv[1] == "0,1"
    assert cf_csv[2] == "1,-2"


def test_cf_taylor_curves_show_divergence(tmp_path):
    # past the series' radius of convergence the partial sums blow up
    # with order; the sampled curves must show the growth at y = 0.3
    code = main(["cf", "--M", "12", "--cf-N", "12", "--taylor-N", "4,8,12",
                 "--y-max", "0.3", "--samples", "7", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "taylor_curves_monoenergetic.csv").read_text().splitlines()
    assert rows[0] == "y,value,N"
    end = {}
    for row in rows[1:]:
        y, value, level = row.split(",")
        if abs(float(y) - 0.3) < 1e-12:
            end[int(level)] = float(value)
    assert set(end) == {4, 8, 12}
    assert 1.0 < end[4] < end[8] < end[12]
    assert end[12] > 5.0


def test_cf_taylor_curves_past_float_range(tmp_path):
    # the level-64 partial sum at y >= 12500 is past the float range; each
    # sample rounds to inf instead of raising after the first files
    code = main(["cf", "--M", "64", "--taylor-N", "64", "--y-max", "1e6", "--snapshots", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "taylor_curves_monoenergetic.csv").read_text().splitlines()
    assert rows[:3] == ["y,value,N", "0,1,64", "12500,inf,64"]
    assert sum(row.split(",")[1] == "inf" for row in rows) == 80


def test_cf_outputs_deterministic_across_runs(tmp_path):
    names = [
        "cf_monoenergetic.json",
        "cf_monoenergetic.csv",
        "selection_monoenergetic.json",
        "defects_monoenergetic.json",
        "cf_curves_monoenergetic.csv",
    ]
    dirs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(
            ["cf", "--M", "12", "--cf-N", "4,8,12", "--samples", "17",
             "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        dirs.append(out)
    for name in names:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name


def test_solve_outputs(tmp_path):
    code = main(
        ["solve", "--grid-cells", "64", "--rtol", "1e-4", "--snapshots", "3",
         "--theta", "constant:4/3", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run_monoenergetic.json").read_text())
    assert manifest["schema"] == "compfrac.run-manifest/1"
    assert manifest["theta"] == "constant 1.33333"
    assert "written_at" in manifest
    assert len(manifest["snapshot_files"]) == 3
    for name in manifest["snapshot_files"].values():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,F,f,G"
        assert len(lines) == 1 + 64


def test_solve_taylor_theta(tmp_path):
    code = main(
        ["solve", "--grid-cells", "32", "--rtol", "1e-3", "--snapshots", "2",
         "--theta", "taylor:4", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run_monoenergetic.json").read_text())
    assert manifest["theta"] == "Taylor partial sum, level 4 (monoenergetic(x0=4, n0=1))"


def test_solver_side_files_bytes(tmp_path):
    # snapshot and verify files equal a rendering built here from the
    # solution's public arrays, so a change of writer cannot move a byte
    flags = ["--M", "4", "--theta", "taylor:4", "--grid-cells", "32", "--rtol", "1e-3",
             "--snapshots", "3", "--out-dir", str(tmp_path)]
    assert main(["solve", *flags]) == EXIT_OK
    assert main(["verify", *flags]) in (EXIT_OK, EXIT_VERIFICATION)
    theta = taylor_form(theta_derivatives_comptonization(Monoenergetic(), 4), 4)
    grid = Grid.log_spaced(cells=32, x_min=1e-3, x_max=50.0, y_end=2.0, snapshots=3)
    sol = solve_transport(Monoenergetic(), theta, grid, rtol=1e-3)
    manifest = json.loads((tmp_path / "run_monoenergetic.json").read_text())
    assert len(manifest["snapshot_files"]) == len(sol.snapshots) == 3
    for y, _ in sol.snapshots:
        columns = (grid.centers, sol.snapshot(y), sol.photon_spectrum(y), sol.energy_spectrum(y))
        expected = "x,F,f,G\n" + "".join(
            f"{x:.12e},{F:.12e},{f:.12e},{G:.12e}\n" for x, F, f, G in zip(*columns)
        )
        name = manifest["snapshot_files"][f"{y:.6g}"]
        assert (tmp_path / name).read_bytes() == expected.encode()
    report = self_consistency(sol, theta)
    expected = "y,theta_in,theta_out,rel_dev\n" + "".join(
        f"{y:.6g},{t_in:.6g},{t_out:.6g},{dev:.6g}\n" for y, t_in, t_out, dev in report.rows
    )
    assert (tmp_path / "verify_monoenergetic.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("order, level", [(37, 36), (48, 47), (49, 47)])
def test_solve_deep_order_skips_defective_levels(tmp_path, order, level):
    # level 37 has a pole near y = 0.051, level 48 one near 0.110 and level
    # 49 a zero near 1.188, so theta would blow up or go negative on (0, 2]
    code = main(
        ["solve", "--M", str(order), "--grid-cells", "32", "--rtol", "1e-3",
         "--snapshots", "2", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run_monoenergetic.json").read_text())
    assert manifest["theta"] == f"continued fraction, level {level} (monoenergetic(x0=4, n0=1))"


def test_reproduce_chains_all_stages(tmp_path, monkeypatch, capsys):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("solve_transport", "theta_derivatives_comptonization", "select_approximant",
                 "find_defects"):
        counted(cli, name)
    counted(contfrac, "_fold")
    counted(contfrac, "find_defects")
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "spectrum = monoenergetic\n"
        "M = 12\n"
        "cf-N = 4,12\n"
        "taylor-N = 4,12\n"
        "grid-cells = 100\n"
        "rtol = 1e-4\n"
        "snapshots = 5\n"
        "tolerance = 0.08\n"
        f"out-dir = {tmp_path / 'out'}\n"
    )
    code = main(["reproduce", "monoenergetic", "--config", str(config)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    expected = [
        "derivs_monoenergetic.json",
        "derivs_monoenergetic.csv",
        "cf_monoenergetic.json",
        "cf_monoenergetic.csv",
        "selection_monoenergetic.json",
        "defects_monoenergetic.json",
        "cf_curves_monoenergetic.csv",
        "run_monoenergetic.json",
        "verify_monoenergetic.json",
        "verify_monoenergetic.csv",
    ]
    for name in expected:
        assert (out / name).exists(), name
    assert (out / "snapshot_monoenergetic_04.csv").exists()
    # every stage shares one table, one level selection, one fold of the
    # fraction into rational forms and one solve; the selection scans each
    # of the 13 fraction levels once, cf reuses its reports, and the
    # driving level's certify scans it once more
    assert calls == {
        "solve_transport": 1,
        "theta_derivatives_comptonization": 1,
        "select_approximant": 1,
        "_fold": 1,
        "find_defects": 14,
    }
    stdout = capsys.readouterr().out
    assert "solved to y = 2" in stdout
    assert "self-consistency pass" in stdout


def test_cf_deepest_order_finishes(tmp_path):
    # the deepest order the CLI accepts: selection over all 65 levels and
    # a coefficient file past the int-to-str digit limit, about 2.5 s
    code = main(["cf", "--spectrum", "bremsstrahlung", "--M", "64",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sel = json.loads((tmp_path / "selection_bremsstrahlung.json").read_text())
    assert len(sel["candidates"]) == 65
    # the deepest coefficients run past 4300 decimal digits
    data = json.loads((tmp_path / "cf_bremsstrahlung.json").read_text())
    assert max(len(r["numerator"]) for r in data["coefficients"]) > 4300
    cf = ContinuedFraction.from_json_dict(data)
    assert cf.truncation == 64
    assert tuple(float(c) for c in cf.coefficients) == tuple(r["float"] for r in data["coefficients"])


# sha256 of the exact-layer files of both shipped configs; a change to
# them must be deliberate and say why
SHIPPED_DIGESTS = {
    "monoenergetic": {
        "derivs_monoenergetic.json": "9065c9f9d483a6e3700f4b76b3d3450da30d9c06e4ca55a986902e48354bd75a",
        "derivs_monoenergetic.csv": "aed0ee754b82ce2309131ef1fa16daa2740a709e7d03bd8d60497e48ee483ac0",
        "cf_monoenergetic.json": "d5720a42635c24b0f80c63c2ff11bb2ce16263fc6fbf9abdf3bcfdc85a6c1a52",
        "cf_monoenergetic.csv": "00bcecec4c7f010056de0eb0a2bbbbb3e112ccdc0099907ecde9586e6c86f1a7",
        "selection_monoenergetic.json": "2953bea9e45cb18b88f24aa7923a5f5da4e3fb304567deebe7335c0b49b2bfd6",
        "defects_monoenergetic.json": "7eefeedc062a7e64c82d32ddba9176befcd5dd4adcf03eb83566cb3b6488a906",
        "cf_curves_monoenergetic.csv": "39a3d09b4ff4758bd79be2dc4c193f00f5ee895549c7b07bd0eaa4d9c5d8acfa",
        "taylor_curves_monoenergetic.csv": "0e01e0c0396774dbe5dbd50bed6a11b4bcf6929ba989b15bb61ddbeb9f7f5735",
    },
    "bremsstrahlung": {
        "derivs_bremsstrahlung.json": "35c52947ea975a107c1c2b69525a4064ed1bf8bf7befec13578c135935e0bf74",
        "derivs_bremsstrahlung.csv": "2ef65d2c822cb667b8e5ff8111b33b7145d452b5b5296dad02fd91de8e1a5e29",
        "cf_bremsstrahlung.json": "f3c66ee6a4835458afc386936c37dffd18145bad63b0bf0333df2efbd98cb9fd",
        "cf_bremsstrahlung.csv": "75ff028075e11ed6a8d0f8b1408a31aa022b07062dd55908056c8be76d9a10b2",
        "selection_bremsstrahlung.json": "05b5cf3bf5598a6200778967cdf760f6a238c1a764b028cf341f1b06e6b2f6e5",
        "defects_bremsstrahlung.json": "7eefeedc062a7e64c82d32ddba9176befcd5dd4adcf03eb83566cb3b6488a906",
        "cf_curves_bremsstrahlung.csv": "1d58dd38809670d39194d712e03c374b410bc6c4dd3f33a2e6c621d38f3f0432",
        "taylor_curves_bremsstrahlung.csv": "44fb9a8ab50cd102ec76513d7e6c59a1f17967cb73d1c3b12a444bbc2ac350f5",
    },
}


@pytest.mark.parametrize("scenario", sorted(SHIPPED_DIGESTS))
def test_shipped_exact_artifacts_pinned(tmp_path, scenario):
    config = Path(compfrac.__file__).parent / "configs" / f"{scenario}.cfg"
    for command in ("derivs", "cf"):
        code = main([command, "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SHIPPED_DIGESTS[scenario]
    }
    assert got == SHIPPED_DIGESTS[scenario]


def test_benchmark_wrapped_names_bound():
    # the benchmark's tracer wraps these names where the pipeline looks
    # them up, and its checks read outputs back through the others; a
    # refactor that drops one breaks the traced run or its checks
    on_cli = ["main", "write_snapshot_csv", "write_run_manifest",
              "theta_derivatives_comptonization", "cf_coefficients",
              "select_approximant", "find_defects", "cf_eval", "taylor_eval",
              "solve_transport", "self_consistency"]
    for name in on_cli:
        assert callable(getattr(cli, name)), name
    for module, name in [(moments, "theta_derivatives_comptonization"),
                         (contfrac, "cf_coefficients"),
                         (contfrac, "select_approximant"),
                         (contfrac, "find_defects"),
                         (contfrac, "maclaurin_of_rational"),
                         (moments.DerivativeTable, "load_json"),
                         (ContinuedFraction, "from_json_dict")]:
        assert callable(getattr(module, name)), name
    # the benchmark's exact check perturbs a table with dataclasses.replace;
    # the fraction must follow the new values, not a series cached elsewhere
    table = moments.theta_derivatives_comptonization(Monoenergetic(), 6)
    values = list(table.values)
    values[3] += Fraction(1, 10**30)
    perturbed = dataclasses.replace(table, values=tuple(values))
    assert cf_coefficients(perturbed).coefficients != cf_coefficients(table).coefficients


def test_readme_quick_start_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = block.split("```", 2)[1]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("compfrac ")]
    assert {argv[1] for argv in commands} >= {"reproduce", "derivs", "cf", "solve", "verify"}
    for argv in commands:
        cli._build_parser().parse_args(argv[1:])


def test_readme_library_use_runs():
    # the README's "Library use" block, run as written, names the public API
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    report = namespace["report"]
    assert report.passed
    assert report.max_rel_dev == pytest.approx(1.358925e-2, rel=1e-3)


def test_snapshot_files_hold_their_own_states(tmp_path):
    # the snapshots lie 1e-9 apart, within the lookup tolerance of each
    # other: each file must still hold its own state, not a neighbour's
    run = Run(build_config(flag_values={"y_max": "2e-9", "snapshots": "3",
                                        "theta": "constant:1", "out_dir": str(tmp_path)}))
    assert cli.cmd_solve(run) == EXIT_OK
    columns = []
    for k, (_, F) in enumerate(run.solution.snapshots):
        rows = (tmp_path / f"snapshot_monoenergetic_{k:02d}.csv").read_text().splitlines()[1:]
        columns.append([row.split(",")[1] for row in rows])
        assert columns[-1] == [f"{v:.12e}" for v in F]
    assert len({tuple(c) for c in columns}) == 3


def test_out_dir_created_nested(tmp_path):
    out = tmp_path / "deep" / "nested"
    assert main(["derivs", "--M", "1", "--out-dir", str(out)]) == EXIT_OK
    assert (out / "derivs_monoenergetic.json").exists()


def _fresh_python(probe: str, **env_vars) -> str:
    """stdout of ``probe`` run by a fresh interpreter that imports compfrac
    from this checkout, without OPENBLAS_NUM_THREADS unless given."""
    src = str(Path(compfrac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_skips_quadrature_modules():
    # the shipped runs need no quadrature, interpolation, special functions
    # or scipy.linalg (dgtsv comes from numpy's OpenBLAS), and not even the
    # scipy package itself, so every CLI call is spared their import time;
    # OpenBLAS starts no worker threads
    probe = (
        "import os, sys, compfrac.cli; "
        "print(sorted(m for m in ('scipy', 'scipy._lib', 'scipy.integrate', "
        "'scipy.interpolate', 'scipy.special', 'scipy.linalg', 'scipy.linalg._flapack') "
        "if m in sys.modules)); "
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )
    modules, threads = _fresh_python(probe).splitlines()
    assert modules == "[]"
    assert threads == "1"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
def test_cli_import_maps_one_openblas():
    # dgtsv comes from the OpenBLAS numpy loads, so scipy's LAPACK wrapper
    # and its second OpenBLAS stay unloaded
    probe = (
        "import os, sys, compfrac.cli; "
        "maps = open('/proc/self/maps').read().split(); "
        "print(len({os.path.basename(f) for f in maps "
        "if os.path.basename(f).startswith('libscipy_openblas')})); "
        "print('scipy.linalg._flapack' in sys.modules)"
    )
    assert _fresh_python(probe).splitlines() == ["1", "False"]


_CHILD_OPENBLAS_PROBE = (
    "import os, subprocess, sys, compfrac; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS')); "
    "child = \"import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))\"; "
    "print(subprocess.run([sys.executable, '-c', child], capture_output=True, "
    "text=True, check=True).stdout.strip())"
)


def test_openblas_default_not_inherited():
    # the one-thread default holds only while OpenBLAS loads: afterwards
    # neither this process nor a child it starts sees the variable
    assert _fresh_python(_CHILD_OPENBLAS_PROBE).splitlines() == ["None", "None"]


def test_user_openblas_threads_kept():
    probe = _CHILD_OPENBLAS_PROBE
    assert _fresh_python(probe, OPENBLAS_NUM_THREADS="2").splitlines() == ["2", "2"]
