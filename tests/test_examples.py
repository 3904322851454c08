"""Smoke tests for the example scripts.

Fast examples run end-to-end in a subprocess; the long-running ones are
compile-checked (their logic is covered by the scenario integration tests).
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FAST = ["quickstart.py", "vector_factors.py", "observability.py",
        "evaluation.py"]
ALL = ["quickstart.py", "vector_factors.py", "national_grid.py",
       "workload_modeling.py", "partial_participation.py", "slurm_vs_maui.py",
       "serving.py", "observability.py", "evaluation.py",
       "fleet_observability.py"]


class TestExamples:
    def test_all_examples_present(self):
        found = {p.name for p in EXAMPLES.glob("*.py")}
        assert set(ALL) <= found

    @pytest.mark.parametrize("name", ALL)
    def test_compiles(self, name):
        py_compile.compile(str(EXAMPLES / name), doraise=True)

    @pytest.mark.parametrize("name", FAST)
    def test_fast_examples_run(self, name):
        proc = subprocess.run([sys.executable, str(EXAMPLES / name)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip(), "example produced no output"

    def test_quickstart_output_shape(self):
        proc = subprocess.run([sys.executable, str(EXAMPLES / "quickstart.py")],
                              capture_output=True, text=True, timeout=120)
        out = proc.stdout
        assert "Effective policy tree" in out
        assert "Fairshare vectors" in out
        assert "percental" in out

    def test_vector_factors_output_shape(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "vector_factors.py")],
            capture_output=True, text=True, timeout=120)
        out = proc.stdout
        assert "suffix" in out and "blend" in out

    def test_evaluation_output_shape(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "evaluation.py")],
            capture_output=True, text=True, timeout=120)
        out = proc.stdout
        assert "usage horizons" in out
        assert "divergence_max" in out
        assert "converged below 0.01 at" in out
        assert "Cross-site divergence" in out

    def test_observability_output_shape(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "observability.py")],
            capture_output=True, text=True, timeout=120)
        out = proc.stdout
        assert "aequus_requests_total" in out
        assert "fcs.refresh" in out
        assert "chrome://tracing" in out
