"""Every demo script runs to completion against the package in ``src``."""

import subprocess
import sys
from pathlib import Path

import pytest
from support import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], env=src_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout
