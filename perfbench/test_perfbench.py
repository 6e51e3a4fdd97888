"""Tests of the benchmark's own arithmetic and checkers (no server needed).

Run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from applier import FrameError, apply, same_state  # noqa: E402
from layers import CounterDelta, counter_metrics, span_metrics  # noqa: E402
from oracle import (  # noqa: E402
    HIDDEN_ANSWERS,
    NONZERO_TIE,
    OUT_OF_ROW_ORDER,
    SCREEN_PIXELS,
    Oracle,
    check_frame,
)
from stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    TooFewSamples,
    covered,
    median,
    percentile,
    self_times,
    tail,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    apply_event,
    leaf_count,
    make_columns,
    session_plan,
    to_sql,
)


# --------------------------------------------------------------------- #
# Percentiles and the sample rule
# --------------------------------------------------------------------- #
def test_median_of_even_count_interpolates():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tail_needs_one_hundred_samples():
    with pytest.raises(TooFewSamples):
        tail(range(99), 0.9)
    assert tail(range(100), 0.9) == pytest.approx(np.quantile(range(100), 0.9))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #
def _span(span_id, parent, start, end, name="s", **attrs):
    return {"id": span_id, "parent": parent, "name": name, "start_ms": start,
            "duration_ms": end - start, "attrs": attrs}


def test_self_time_of_nested_spans():
    spans = [_span(0, -1, 0, 10), _span(1, 0, 2, 5), _span(2, 1, 3, 4)]
    assert self_times(spans) == {0: 7, 1: 2, 2: 1}


def test_self_time_counts_overlapping_children_once():
    # Children on parallel threads overlap; one reaches past its parent.
    spans = [_span(0, -1, 0, 10), _span(1, 0, 1, 4), _span(2, 0, 3, 6),
             _span(3, 0, 8, 12)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 2))
    assert selfs[1] == 3 and selfs[3] == 4


def test_phase_timers_take_nested_calls_out(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import server

    clock = iter([0.0, 0.002, 0.005, 0.010])  # leaf in, mask in, mask out, leaf out
    monkeypatch.setattr(server.time, "perf_counter", lambda: next(clock))
    timers = server.PhaseTimers()
    mask = timers._wrap("mask_ms", lambda: None)
    leaf = timers._wrap("leaf_raw_ms", lambda: mask())
    leaf()
    totals = timers.snapshot()
    assert totals["mask_ms"] == pytest.approx(3.0)
    assert totals["leaf_raw_ms"] == pytest.approx(10.0 - 3.0)


def test_covered_ignores_intervals_outside_the_window():
    assert covered([(-5, -1), (11, 20)], 0, 10) == 0
    assert covered([(2, 3), (2, 3), (2.5, 4)], 0, 10) == 2


def test_span_metrics_divide_self_time_by_updates():
    trace = {"spans": [
        _span(0, -1, 0, 10, "event"),
        _span(1, 0, 1, 9, "session.execute_batch"),
        _span(2, 1, 2, 6, "plan.evaluate"),
        _span(3, 2, 3, 5, "node.evaluate", certificate="bounds", certified=True),
        _span(4, 1, 6, 8, "frame.build", windows=3, rendered_fresh=1),
        _span(5, 0, 9, 10, "frame.encode", mode="snapshot"),
    ]}
    out = span_metrics([trace, trace], updates=2)
    assert out["session.execute_ms"] == 2
    assert out["engine.plan_evaluate_ms"] == 2
    assert out["plan.node_evaluate_ms"] == 2
    assert out["protocol.frame_encode_ms"] == 1
    assert out["protocol.full_encodes_per_update"] == 1
    assert out["session.render_hit_ratio"] == pytest.approx(2 / 3)
    assert out["shard.bounds_certified_ratio"] == 1
    assert out["engine.quantile_certified_ratio"] == 0


def test_counter_metrics_use_differences():
    delta = CounterDelta()
    before = CounterDelta.read({"wire": {"deltas_sent": 5, "snapshots_sent": 1},
                                "service": {"runs": 10, "events_executed": 10}})
    after = CounterDelta.read({"wire": {"deltas_sent": 8, "snapshots_sent": 2},
                               "service": {"runs": 12, "events_executed": 18}})
    delta.add(before, after)
    out = counter_metrics(delta, updates=2)
    assert out["protocol.delta_share"] == 0.75
    assert out["service.events_per_run"] == 4


# --------------------------------------------------------------------- #
# The delta applier
# --------------------------------------------------------------------- #
def _window(title, distances, items, width=2, height=1):
    return {"title": title, "width": width, "height": height,
            "distances": distances, "item_ids": items}


def _full(frame_id, order, windows, results=2):
    return {"ok": True, "type": "frame", "mode": "snapshot", "frame_id": frame_id,
            "base_frame_id": None, "statistics": {"# of results": results},
            "display_order": order, "windows": windows}


def _delta(frame_id, base, windows, display=None, removed=None):
    reply = {"ok": True, "type": "frame", "mode": "delta", "frame_id": frame_id,
             "base_frame_id": base, "statistics": {"# of results": 3},
             "display": display or {"unchanged": True}, "windows": windows}
    if removed:
        reply["removed_windows"] = removed
    return reply


BASE = _full(1, [4, 7], {"": _window("all", [0.0, None], [4, -1]),
                         "0": _window("t", [1.0, 2.0], [4, 7])})


def test_applier_patches_cells_titles_and_display():
    state = apply(None, BASE)
    state = apply(state, _delta(
        2, 1,
        {"": {"cells": [[1, 3.5, 9]]}, "0": {"cells": [], "title": "t2"}},
        display={"order": [4, 9], "entered": [9], "left": [7]}))
    expected = _full(2, [4, 9], {"": _window("all", [0.0, 3.5], [4, 9]),
                                 "0": _window("t2", [1.0, 2.0], [4, 7])})
    expected["statistics"] = {"# of results": 3}
    assert same_state(state, apply(None, expected))
    # The base state was not modified.
    assert apply(None, BASE)["windows"][""]["item_ids"] == [4, -1]


def test_applier_full_unchanged_and_removed_windows():
    state = apply(None, BASE)
    new = apply(state, _delta(2, 1, {"": {"unchanged": True},
                                     "1": {"full": _window("b", [0.0, 0.0], [4, 7])}},
                              removed=["0"]))
    assert sorted(new["windows"]) == ["", "1"]
    assert new["windows"][""] is state["windows"][""]
    same = apply(new, {"ok": True, "type": "frame", "mode": "unchanged",
                       "frame_id": 2, "statistics": new["statistics"]})
    assert same_state(same, new)


@pytest.mark.parametrize("reply", [
    _delta(2, 5, {"": {"unchanged": True}, "0": {"unchanged": True}}),
    _delta(2, 1, {"": {"unchanged": True}}),
    _delta(2, 1, {"": {"unchanged": True}, "0": {"unchanged": True}},
           display={"order": [4, 9], "entered": [], "left": [7]}),
    _delta(2, 1, {"": {"cells": [[5, 1.0, 3]]}, "0": {"unchanged": True}}),
    _delta(2, 1, {"": {"unchanged": True}, "9": {"cells": []}}, removed=["0"]),
    {"ok": True, "type": "frame", "mode": "unchanged", "frame_id": 3,
     "statistics": {}},
    {"ok": False, "code": "internal", "error": "boom"},
])
def test_applier_rejects_what_the_protocol_forbids(reply):
    with pytest.raises(FrameError):
        apply(apply(None, BASE), reply)


def test_applier_rejects_a_window_of_the_wrong_size():
    broken = _full(1, [], {"": _window("all", [0.0], [1])})
    with pytest.raises(FrameError):
        apply(None, broken)


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #
COLUMNS = {"t": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
           "a": np.array([9.0, 1.0, 8.0, 2.0, 7.0, 3.0])}
# t in [2, 5] and (a > 5 or a < 2): rows 1 (a=1), 2 (a=8), 4 (a=7).
TREE = {"kind": "and", "children": [
    {"kind": "range", "attr": "t", "low": 2.0, "high": 5.0, "weight": 1.0},
    {"kind": "or", "children": [
        {"kind": "cmp", "attr": "a", "op": ">", "value": 5.0, "weight": 1.0},
        {"kind": "cmp", "attr": "a", "op": "<", "value": 2.0, "weight": 1.0},
    ]},
]}


def _stats(results, shown, rows=6):
    return {"# objects": rows, "# of results": results, "# displayed": shown}


def _overall(items, distances):
    """An overall window holding ``items`` at ``distances``, plus an empty cell."""
    return {"item_ids": list(items) + [-1], "distances": list(distances) + [None]}


#: An overall window for frames whose distances the check never reads.
ANY = _overall([], [])


def test_oracle_counts_a_hand_checked_table():
    mask = Oracle(COLUMNS).exact_mask(TREE)
    assert mask.tolist() == [False, True, True, False, True, False]


def test_oracle_accepts_exact_answers_first():
    mask = Oracle(COLUMNS).exact_mask(TREE)
    assert check_frame(mask, _stats(3, 4), [2, 1, 4, 0], 3, None, ANY) == []
    # Fewer slots than answers: only answers may be shown.
    assert check_frame(mask, _stats(3, 2), [4, 1], 3, 2 / 6, ANY) == []


def test_oracle_flags_each_disagreement():
    mask = Oracle(COLUMNS).exact_mask(TREE)
    assert "an exact answer is missing from the display" in check_frame(
        mask, _stats(3, 4), [2, 1, 0, 3], 3, None, ANY)
    problems = check_frame(mask, _stats(4, 3, rows=7), [1, 1, 2], 3, 2 / 6, ANY)
    assert any("# objects" in p for p in problems)
    assert any("# of results" in p for p in problems)
    assert "display_order repeats a row" in problems
    assert any("expected 2" in p for p in problems)


def test_oracle_classes_hidden_answers_by_the_known_fault_signature():
    # Exact answers are rows 1, 2 and 4; two slots.
    mask = Oracle(COLUMNS).exact_mask(TREE)
    # The fault: rows 0 and 1 tie at distance 0 and fill the slots in row
    # order, hiding answers 2 and 4.
    assert check_frame(mask, _stats(3, 2), [0, 1], 3, 2 / 6,
                       _overall([0, 1], [0.0, 0.0])) == [HIDDEN_ANSWERS]
    # A displayed non-answer ranked above hidden answers at a distance > 0.
    assert check_frame(mask, _stats(3, 2), [0, 1], 3, 2 / 6,
                       _overall([0, 1], [0.0, 3.5])) == [HIDDEN_ANSWERS, NONZERO_TIE]
    # A displayed row with no cell in the overall window.
    assert NONZERO_TIE in check_frame(mask, _stats(3, 2), [0, 1], 3, 2 / 6,
                                      _overall([0], [0.0]))
    # Ties at 0, but answer 2 is hidden behind row 3, out of row order.
    assert check_frame(mask, _stats(3, 2), [1, 3], 3, 2 / 6,
                       _overall([3, 1], [0.0, 0.0])) == [HIDDEN_ANSWERS, OUT_OF_ROW_ORDER]


def test_quantile_display_bound_is_one_pixel_per_item_per_window():
    mask = np.zeros(SCREEN_PIXELS, dtype=bool)
    bound = SCREEN_PIXELS // 4
    order = list(range(bound + 1))
    problems = check_frame(mask, _stats(0, bound + 1, rows=SCREEN_PIXELS),
                           order, 3, None, ANY)
    assert any(f"at most {bound}" in p for p in problems)


# --------------------------------------------------------------------- #
# Workload generation
# --------------------------------------------------------------------- #
def test_workloads_are_deterministic_in_the_seed():
    a, b = make_columns(1000, 3), make_columns(1000, 3)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["b"], make_columns(1000, 4)["b"])
    for workload in WORKLOADS.values():
        p1, p2 = session_plan(workload, 3, 5), session_plan(workload, 3, 5)
        assert to_sql(p1.tree) == to_sql(p2.tree)
        assert [p1.next_tick() for _ in range(6)] == [p2.next_tick() for _ in range(6)]
        assert to_sql(session_plan(workload, 3, 6).tree) != to_sql(p1.tree)


def test_events_mirror_on_the_client_model():
    plan = session_plan(WORKLOADS["explore-1m"], 1, 0)
    assert leaf_count(plan.tree) == 3
    apply_event(plan.tree, {"type": "threshold", "path": [1], "value": 40.5})
    assert "a > 40.5000" in to_sql(plan.tree)
    apply_event(plan.tree, {"type": "weight", "path": [2], "weight": 0.5})
    assert "WEIGHT 0.5000" in to_sql(plan.tree)


def test_global_moves_are_stratified_over_a_pass():
    workload = WORKLOADS["explore-1m"]
    for seed in (1, 2):
        plan = session_plan(workload, seed, 0)
        ticks = [plan.next_tick() for _ in range(workload.updates_per_pass)]
        values = [t["value"] for t in ticks if t["type"] == "threshold"]
        slots = sorted(int((v - 38.0) / 8.0 * len(values)) for v in values)
        assert slots == list(range(len(values)))
        lows = [t["low"] for t in ticks if t["type"] == "range"]
        slots = sorted(int((v - 300.0) / 100.0 * len(lows)) for v in lows)
        assert slots == list(range(len(lows)))
        leaves = [t["path"][0] for t in ticks if t["type"] == "weight"]
        assert leaves[:3] == [0, 1, 2]
        kinds = [t["type"] for t in ticks]
        assert kinds.count("threshold") < len(kinds) / 2


def test_a_run_does_the_same_work_for_the_same_seconds():
    for workload in WORKLOADS.values():
        assert workload.passes(10) == workload.passes(10.0)
        assert workload.passes(60) >= workload.passes(10)
        for seconds in (0.5, 10):
            updates = (workload.updates_per_pass * workload.sessions
                       * workload.passes(seconds))
            assert updates >= MIN_TAIL_SAMPLES
