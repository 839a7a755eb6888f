"""The scripts under scripts/ import library names that no other test
reaches; loading each one (its work runs only under __main__) catches a
name a library change removes, and one study runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_scripts_found():
    assert {p.name for p in SCRIPTS} == {
        "bench_exact_layers.py", "convergence_study.py", "reproduce_all.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    runpy.run_path(str(path), run_name="not_main")


def test_convergence_study_rows(monkeypatch, capsys):
    # end to end through compfrac.cli.Run: the level `--theta cf` picks,
    # solved on each case's grid at the default order, and the closure
    # reference theta_ref solved on the same grid
    path = SCRIPT_DIR / "convergence_study.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="not_main")["main"]()
    pulse, freefree = capsys.readouterr().out.split("--- bremsstrahlung")

    def rows(section, columns=slice(3, 6)):
        return {tuple(line.split()[:3]): line.split()[columns]
                for line in section.splitlines() if line.strip()[:1].isdigit()}

    assert rows(pulse)[("400", "1e-03", "1e-06")] == ["1.359%", "1.684%", "110"]
    assert rows(freefree)[("600", "1e-05", "1e-06")][0] == "1.406%"

    # theta_ref(2) and the signed worst (theta_in - theta_ref) / theta_ref
    reference = slice(6, 8)
    assert rows(pulse, reference)[("400", "1e-03", "1e-06")] == ["1.331887", "-2.116%"]
    assert rows(freefree, reference)[("600", "1e-05", "1e-06")] == ["0.148193", "+2.011%"]
    # the figures the bremsstrahlung config's comment quotes for x_min = 1e-3
    assert rows(freefree)[("400", "1e-03", "1e-06")][0] == "7.256%"
    assert rows(freefree, reference)[("400", "1e-03", "1e-06")] == ["0.182223", "-17.039%"]
