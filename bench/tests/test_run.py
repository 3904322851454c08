"""A run reports what it measured: a metric without a value fails the run
instead of reading 0, and only layers a system does not have are sent as 0."""

import pytest

from bench import hygiene
from bench.metrics import END_TO_END, NOT_APPLICABLE, PER_LAYER
from bench.run import RunResult, WorkloadInvalid
from bench.spec import load_workload, workload_names


def test_a_missing_end_to_end_metric_fails_the_run():
    res = RunResult("chain_sparse", "chain", 1, 15.0, trace=False)
    res.values.update({m.name: 1.0 for m in END_TO_END
                       if m.name != "get_qps"})
    with pytest.raises(WorkloadInvalid, match="get_qps"):
        res.last_line()


def test_only_layers_the_system_lacks_are_sent_as_zero():
    res = RunResult("grid_live", "grid", 1, 15.0, trace=True)
    absent = NOT_APPLICABLE["grid"]
    res.values.update({m.name: 2.0 for m in PER_LAYER
                       if m.name not in absent})
    out = res.metrics()
    assert list(out) == [m.name for m in PER_LAYER]
    assert {n for n, e in out.items() if e["value"] == 0.0} == absent
    del res.values["ums.refresh_ms"]
    with pytest.raises(WorkloadInvalid, match="ums.refresh_ms"):
        res.metrics()


def test_not_applicable_covers_every_system_with_catalogue_names():
    names = {m.name for m in PER_LAYER}
    assert set(NOT_APPLICABLE) == {load_workload(w).system
                                   for w in workload_names()}
    for absent in NOT_APPLICABLE.values():
        assert absent <= names


def test_only_the_runs_own_segments_count_as_left_behind(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(hygiene, "_SHM_DIR", str(tmp_path))
    base = hygiene.Baseline()
    base.stems.add(hygiene._stem("aqshm_s1-1f-abc_ctl"))
    base.stems.add(hygiene._stem("psm_ours"))
    for name in ("aqshm_s1-1f-abc_3_0",        # ours, a later generation
                 "aqshm_s1-2a-def_ctl",        # another run's writer
                 "psm_ours", "psm_theirs"):
        (tmp_path / name).touch()
    assert base.problems()["shm"] == ["aqshm_s1-1f-abc_3_0", "psm_ours"]
