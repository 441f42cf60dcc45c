"""The benchmark's own arithmetic: percentiles, self time, failures, rates.

Kept free of ``repro`` imports so ``test_stats.py`` can check it alone.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Mapping, Sequence

#: Percentiles considered for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie above the ``percentile`` rank."""
    return count - math.ceil(count * percentile / 100.0)


def tail_percentile(count: int) -> float | None:
    """The highest tail percentile with at least ten samples beyond it."""
    for percentile in TAIL_PERCENTILES:
        if beyond(count, percentile) >= MIN_BEYOND:
            return percentile
    return None


def percentile(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100.0))
    return ordered[rank - 1]


def mb_per_s(byte_count: int, seconds: float) -> float:
    """Decimal megabytes per second."""
    if seconds <= 0:
        raise ValueError(f"throughput over a non-positive time {seconds}")
    return byte_count / seconds / 1e6


def host_scaled(seconds: Sequence[float], slowdowns: Sequence[float]) -> list[float]:
    """Each time divided by the host slowdown measured around it.

    A slowdown is the host-speed probe's time over its reference time:
    2.0 when the host ran the probe at half the reference speed, so a
    call timed then counts half its wall time.
    """
    if len(seconds) != len(slowdowns):
        raise ValueError(f"{len(seconds)} times but {len(slowdowns)} slowdowns")
    if any(slowdown <= 0 for slowdown in slowdowns):
        raise ValueError("a host slowdown must be positive")
    return [value / slowdown for value, slowdown in zip(seconds, slowdowns)]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


class Tally:
    """Operations attempted and failed (a wrong answer is a failure)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def add(self, attempted: int, failed: int, failures: Iterable[str] = ()) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.extend(list(failures)[: max(0, 20 - len(self.failures))])

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def effective_names(
    names: Sequence[str],
    parents: Sequence[int],
    absorb: Mapping[str, frozenset[str]],
) -> list[str]:
    """Each span's layer name after absorption.

    A span whose parent's layer absorbs its name takes the parent's
    layer: iDTD finalize inside kore's finalize is kore's finalize.
    Parents precede children, so one pass suffices.
    """
    effective: list[str] = []
    for name, parent in zip(names, parents, strict=True):
        if parent >= 0 and name in absorb.get(effective[parent], frozenset()):
            effective.append(effective[parent])
        else:
            effective.append(name)
    return effective


def self_times(
    spans: Sequence[Sequence[int]],
    names: Sequence[str],
    absorb: Mapping[str, frozenset[str]] | None = None,
) -> dict[str, dict[str, int]]:
    """Per-layer self time, outermost calls and work from one thread's spans.

    ``spans`` rows are ``(name_id, start_ns, end_ns, parent, request,
    work)`` with ``parent`` indexing the same list (``-1``: root) and
    nested strictly inside its parent.  A span's self time is its
    duration minus its direct children's durations.  ``calls`` counts
    spans whose parent is in another layer, so recursion and nested
    entry points into one layer count once.
    """
    raw = [names[row[0]] for row in spans]
    parents = [row[3] for row in spans]
    layer = effective_names(raw, parents, absorb or {})
    child_ns = [0] * len(spans)
    for row in spans:
        if row[3] >= 0:
            child_ns[row[3]] += row[2] - row[1]
    totals: dict[str, dict[str, int]] = {}
    for index, row in enumerate(spans):
        entry = totals.setdefault(layer[index], {"self_ns": 0, "calls": 0, "work": 0})
        entry["self_ns"] += row[2] - row[1] - child_ns[index]
        parent = row[3]
        if parent < 0 or layer[parent] != layer[index]:
            entry["calls"] += 1
            entry["work"] += row[5]
    return totals


def merge_totals(
    into: dict[str, dict[str, int]], more: Mapping[str, Mapping[str, int]]
) -> None:
    for name, entry in more.items():
        target = into.setdefault(name, {"self_ns": 0, "calls": 0, "work": 0})
        for key, value in entry.items():
            target[key] += value
