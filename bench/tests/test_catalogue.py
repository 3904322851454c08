"""BENCHMARK.json, the metric catalogue and the workload files agree, and
stay inside the limits the benchmark contract sets."""

import json
import re
from pathlib import Path

import pytest

from bench.cli import RUN_SECONDS
from bench.metrics import END_TO_END, PER_LAYER
from bench.session import verdict
from bench.spec import load_workload, workload_names

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_command(doc):
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "-m", "bench"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == int(RUN_SECONDS) and 1 <= RUN_SECONDS <= 60


def test_workloads_match_the_workload_files(doc):
    assert sorted(w["name"] for w in doc["workloads"]) == workload_names()
    assert 2 <= len(doc["workloads"]) <= 8
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == load_workload(entry["name"]).why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_catalogue(doc):
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_names_units_and_bounds_are_within_the_contract(doc):
    names = [m.name for m in END_TO_END + PER_LAYER] + workload_names()
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.match(m.name), m.name
        assert UNIT.match(m.unit), m.unit
        assert m.better in ("lower", "higher")
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert setup[0].bound == max(m.bound for m in END_TO_END)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


class TestVerdict:
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2]

    def test_worse_beyond_the_bound(self):
        assert verdict(self.base, [120.0, 121.0, 119.0], "lower", 0.10) \
            == "worse"
        assert verdict(self.base, [80.0, 81.0], "higher", 0.10) == "worse"

    def test_inside_the_bound_and_the_noise_is_unchanged(self):
        assert verdict(self.base, [100.4, 100.1], "lower", 0.10) \
            == "unchanged"

    def test_better_needs_more_than_the_base_spread(self):
        assert verdict(self.base, [90.0, 91.0, 89.5], "lower", 0.10) \
            == "better"

    def test_noisy_base_is_unresolved_unless_dominated(self):
        noisy = [100.0, 140.0, 80.0, 125.0, 70.0, 110.0]
        assert verdict(noisy, [95.0, 120.0], "lower", 0.10) == "unresolved"
        assert verdict(noisy, [60.0, 65.0], "lower", 0.10) == "better"

    def test_missing_runs(self):
        assert verdict([], [1.0], "lower", 0.1) == "missing"
