import pytest

from bench.spans import Tracer, chrome_trace, self_time_table, self_times


def _by_name(tracer):
    selfs = self_times(tracer.spans)
    return {s.name: selfs[s.index] for s in tracer.spans}


def test_self_time_is_duration_minus_children():
    t = Tracer()
    root = t.begin("round", at=0.0)
    a = t.begin("a", at=1.0)
    t.end(a, at=3.0)
    b = t.begin("b", at=4.0)
    t.end(b, at=9.0)
    t.end(root, at=10.0)
    selfs = _by_name(t)
    assert selfs == {"round": pytest.approx(3.0), "a": pytest.approx(2.0),
                     "b": pytest.approx(5.0)}
    # the layers' self times sum to the end-to-end figure
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_grandchildren_are_charged_to_their_parent_only():
    t = Tracer()
    root = t.begin("round", at=0.0)
    a = t.begin("a", at=1.0)
    inner = t.begin("inner", at=2.0)
    t.end(inner, at=4.0)
    t.end(a, at=5.0)
    t.end(root, at=6.0)
    selfs = _by_name(t)
    assert selfs["inner"] == pytest.approx(2.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["round"] == pytest.approx(2.0)


def test_overlapping_children_are_counted_once_and_clipped():
    t = Tracer()
    root = t.begin("round", at=0.0)
    t.add("x", 1.0, 6.0)
    t.add("y", 4.0, 8.0)          # overlaps x for 2s
    t.add("z", 9.0, 12.0)         # runs 2s past its parent
    t.end(root, at=10.0)
    # covered: [1,6] + (6,8] + [9,10] = 8 of 10
    assert _by_name(t)["round"] == pytest.approx(2.0)


def test_add_parents_to_the_open_span_and_keeps_the_round_id():
    t = Tracer()
    t.round_id = 7
    root = t.begin("round", at=0.0)
    t.add("observed", 0.2, 0.4)
    t.end(root, at=1.0)
    assert t.spans[1].parent == root and t.spans[1].round_id == 7
    t.add("orphan", 2.0, 3.0)
    assert t.spans[2].parent is None


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    with t.span("a"):
        t.add("b", 0.0, 1.0)
    t.end(t.begin("c"))
    assert t.spans == []


def test_table_ranks_by_self_time_and_shares_sum_to_one():
    t = Tracer()
    for k in range(3):
        t.round_id = k
        root = t.begin("round", at=10.0 * k)
        t.add("big", 10.0 * k + 1, 10.0 * k + 8)
        t.add("small", 10.0 * k + 8, 10.0 * k + 9)
        t.end(root, at=10.0 * k + 10)
    table = self_time_table(t.spans)
    assert [r["name"] for r in table] == ["big", "round", "small"]
    assert table[0]["count"] == 3 and table[0]["self_s"] == pytest.approx(21)
    assert sum(r["share"] for r in table) == pytest.approx(1.0)


def test_chrome_trace_has_one_complete_event_per_span():
    t = Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
    events = chrome_trace(t.spans, "w")["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["a", "b"]
    assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")


def test_traced_slots_balance_parity_and_cancel_drift():
    from bench.spans import traced_slot
    slots = [traced_slot(k) for k in range(16)]
    assert slots[:4] == [True, False, False, True]
    traced = [k for k in range(16) if slots[k]]
    plain = [k for k in range(16) if not slots[k]]
    assert len(traced) == len(plain)
    assert sum(k % 2 for k in traced) == sum(k % 2 for k in plain)
    assert sum(traced) == sum(plain)          # a linear drift cancels
