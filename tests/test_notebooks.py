"""Smoke test: every script under ``notebooks/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
NOTEBOOKS = sorted((ROOT / "notebooks").glob("*.py"))


def test_notebooks_are_found():
    # an empty glob would leave the parametrized test below with no cases
    assert NOTEBOOKS


@pytest.mark.parametrize("path", NOTEBOOKS, ids=lambda p: p.stem)
def test_notebook_exits_0(path, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
