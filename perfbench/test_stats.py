"""Unit tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/test_stats.py``
(or ``python3 perfbench/test_stats.py`` without pytest).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import stats  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(9) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    for count in (100, 200, 1000, 1234, 10_000):
        assert stats.beyond(count, stats.tail_percentile(count)) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 99) == 5.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_nested_self_time_subtracts_direct_children_only():
    names = ["api", "parse", "fold"]
    # api [0, 100) holds parse [10, 40) which holds fold [20, 30),
    # and fold [50, 70) directly.
    spans = [
        (0, 0, 100, -1, 1, 0),
        (1, 10, 40, 0, 1, 7),
        (2, 20, 30, 1, 1, 0),
        (2, 50, 70, 0, 1, 0),
    ]
    totals = stats.self_times(spans, names)
    assert totals["api"]["self_ns"] == 100 - 30 - 20
    assert totals["parse"]["self_ns"] == 30 - 10
    assert totals["fold"]["self_ns"] == 10 + 20
    assert sum(entry["self_ns"] for entry in totals.values()) == 100
    assert totals["fold"]["calls"] == 2
    assert totals["parse"]["work"] == 7


def test_recursion_and_absorption_count_one_call():
    names = ["kore", "idtd", "simplify"]
    spans = [
        (0, 0, 100, -1, 0, 0),
        (1, 10, 60, 0, 0, 0),
        (1, 20, 30, 1, 0, 0),
        (2, 70, 80, 0, 0, 0),
    ]
    plain = stats.self_times(spans, names)
    assert plain["idtd"]["calls"] == 1
    assert plain["idtd"]["self_ns"] == 50
    absorbed = stats.self_times(spans, names, {"kore": frozenset({"idtd"})})
    assert "idtd" not in absorbed
    assert absorbed["kore"]["self_ns"] == 90
    assert absorbed["kore"]["calls"] == 1
    assert absorbed["simplify"]["self_ns"] == 10


def test_open_and_out_of_window_spans_are_dropped():
    spans = [
        [0, 0, 100, -1, 1, 0],
        None,  # still open when written; its child becomes a root
        [1, 20, 30, 1, 1, 0],
        [1, 40, 50, 0, 1, 0],
    ]
    rows = layers._rows(spans)
    assert [row[3] for row in rows] == [-1, -1, 0]
    inside = layers._rows(spans, (15, 60))
    assert [(row[1], row[3]) for row in inside] == [(20, -1), (40, -1)]


def test_coverage_leaves_out_root_and_facade_self_time():
    # bench.call [0, 100) holds api.infer [5, 95), which holds parse
    # [10, 50) and a helper no wrapper reaches for the rest.
    payload = {
        "label": "shape-batch",
        "names": ["bench.call", "api.infer", "xmlio.parse"],
        "threads": [[[0, 0, 100, -1, 1, 0], [1, 5, 95, 0, 1, 0], [2, 10, 50, 1, 1, 0]]],
    }
    covered = layers.coverage([payload], "shape-batch")
    assert covered["share"] == 40 / 100
    assert layers.coverage([payload], "shape-kore") is None


def test_failure_counting():
    tally = stats.Tally()
    assert tally.share == 0.0
    tally.record(True)
    tally.record(False, "wrong dtd")
    tally.add(8, 1, ["429"])
    assert (tally.attempted, tally.failed) == (10, 2)
    assert tally.share == 0.2
    assert tally.failures == ["wrong dtd", "429"]


def test_mb_per_s():
    assert stats.mb_per_s(3_000_000, 1.5) == 2.0
    try:
        stats.mb_per_s(1, 0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("zero time must raise")


def test_host_scaled_divides_each_time_by_its_own_slowdown():
    # A call timed while the probe ran at half the reference speed
    # counts half its wall time; one timed at reference speed, all of it.
    assert stats.host_scaled([2.0, 1.0, 0.3], [2.0, 1.0, 0.5]) == [1.0, 1.0, 0.6]
    assert stats.host_scaled([], []) == []
    for seconds, slowdowns in (([1.0], []), ([1.0], [0.0])):
        try:
            stats.host_scaled(seconds, slowdowns)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{seconds} over {slowdowns} must raise")


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
