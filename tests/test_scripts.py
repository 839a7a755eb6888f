"""The scripts under scripts/ import library names that no other test
reaches; loading each one (its work runs only under __main__) catches a
name a library change removes."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    runpy.run_path(str(path), run_name="not_main")
