"""Tests for the benchmark's own helpers: percentiles, span self time,
the open-loop schedule and its pacing, and the tracer's accounting.

Run: ``python3 -m pytest perfbench/test_perfbench.py -q``
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import tracer  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert measure.percentile(values, 0.50) == 50
    assert measure.percentile(values, 0.95) == 95
    assert measure.percentile(values, 1.0) == 100
    assert measure.percentile(values, 0.0) == 1
    assert measure.percentile([7.0], 0.95) == 7.0
    assert measure.percentile([3, 1, 2], 0.5) == 2  # unsorted input


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 1.5)


def test_median_even_and_odd():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5


def test_union_length_merges_overlaps():
    assert measure.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert measure.union_length([(0, 10), (2, 3)]) == 10
    assert measure.union_length([]) == 0


def test_self_times_subtract_children_once():
    spans = [
        (1, None, 0.0, 10.0),   # root
        (2, 1, 1.0, 4.0),       # child
        (3, 1, 3.0, 6.0),       # overlapping sibling (other thread)
        (4, 2, 2.0, 3.0),       # grandchild
        (5, 1, 9.0, 12.0),      # escapes the parent: clipped to 9..10
    ]
    selfs = measure.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)  # children cover 1..6, 9..10
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_paced_schedule_is_fixed_and_ordered():
    schedule = measure.paced_schedule(4.0, 2.0, eval_period_s=1.0)
    solves = [due for due, kind in schedule if kind == "solve"]
    evals = [due for due, kind in schedule if kind == "eval"]
    assert solves == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    assert evals == [0.5, 1.5]
    assert [due for due, _ in schedule] == sorted(due for due, _ in schedule)
    # A solve due at the same instant as an eval goes first.
    assert schedule[2:4] == [(0.5, "solve"), (0.5, "eval")]
    quiet = measure.paced_schedule(4.0, 2.0, eval_period_s=1.0, quiet_s=0.3)
    assert [due for due, kind in quiet if kind == "solve"] == [
        0.0, 0.5, 0.75, 1.0, 1.5, 1.75]
    with pytest.raises(ValueError):
        measure.paced_schedule(0.0, 1.0)


def test_repeat_share_counts_earlier_keys():
    assert measure.repeat_share(["a", "b", "a", "a"]) == 0.5
    assert measure.repeat_share(["a", "c"], seen={"a"}) == 0.5
    assert measure.repeat_share([]) == 0.0


def test_open_loop_sends_on_schedule_despite_a_slow_reply():
    """The load generator's pacing rule: an op is never sent before its
    due time, and a stall delays later sends rather than the schedule."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run

    sent = []

    class FakeConn:
        def __init__(self, *_args, **_kwargs):
            pass

        def request(self, method, path, body=None, headers=None):
            sent.append((time.perf_counter(), body))

        def getresponse(self):
            class Response:
                status = 200

                def read(self_inner):
                    if sent[-1][1] == b"slow":
                        time.sleep(0.15)
                    return b"{}"
            return Response()

        def close(self):
            pass

    ops = [run.Op("solve", "/x", b"slow" if i == 0 else b"fast", f"r{i}",
                  "k", due=i * 0.05) for i in range(4)]
    original = run.http.client.HTTPConnection
    run.http.client.HTTPConnection = FakeConn
    try:
        run._drive(0, ops, paced=True, workers=1)
    finally:
        run.http.client.HTTPConnection = original
    assert all(op.ok for op in ops)
    # One connection: ops 1..3 wait behind the slow op 0 and are late,
    # and their latency counts from the due time, not from sending.
    assert ops[0].late_ms < 20
    assert ops[1].late_ms > 50
    for op in ops:
        assert op.latency_ms >= op.rtt_ms - 1e-6
        assert op.latency_ms == pytest.approx(op.late_ms + op.rtt_ms,
                                              abs=1.0)


def test_tracer_accounting_closes_and_counts_self_time():
    recorder = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        time.sleep(0.005)
        traced_leaf()

    traced_leaf = recorder.wrap("leaf", leaf)
    traced_middle = recorder.wrap("middle", middle)
    root = recorder.wrap("serve.batch", lambda: traced_middle())
    threads = [threading.Thread(target=root) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    result = tracer.layer_accounting(recorder.spans)
    assert result["closes"]
    layers = result["layers_ms"]
    assert set(layers) == {"leaf", "middle"}
    assert layers["leaf"] >= 20.0
    assert layers["middle"] >= 10.0
    assert (sum(layers.values()) + result["unaccounted_ms"]
            == pytest.approx(result["root_wall_ms"], abs=0.01))
    # Parents are per thread: two roots, each with its own chain.
    roots = [s for s in recorder.spans if s[1] is None]
    assert len(roots) == 2
