"""Smoke tests: the demo scripts run to completion.

Demos 02 and 03 take about 12 s each, so they are only imported: that
still fails fast on a name the package no longer exports.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_measures_and_coefficients.py",
    "04_corrector.py",
    "05_correction_round.py",
])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("script", [
    "02_wiener_and_index_sets.py",
    "03_mset_convergence.py",
])
def test_demo_imports(script):
    spec = importlib.util.spec_from_file_location(
        "demo_" + script[:2], ROOT / "demos" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs imports, not main()
    assert callable(module.main)
