"""Turn the span files of a traced run into per-layer numbers."""

from __future__ import annotations

import glob
import json
import os

import stats

#: Spans nested in these layers belong to them: kore's and sire's
#: finalize run the iDTD and CRX finalizers on marked/projected states.
ABSORB: dict[str, frozenset[str]] = {
    "learning.finalize.kore": frozenset({"core.finalize.idtd"}),
    "learning.finalize.sire": frozenset({"core.finalize.crx"}),
}

#: The benchmark's own root span around each timed corpus call.
ROOT_SPAN = "bench.call"
#: Spans whose self time is not a layer below the facade.
UNCOVERED = (ROOT_SPAN, "api.infer")


def load(directory: str) -> list[dict]:
    """Every span file written under ``directory``."""
    files = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    return files


def _rows(spans: list, window: tuple[int, int] | None = None) -> list:
    """Closed spans (inside ``window``), parents re-indexed.

    A span still open when its process wrote the file (``None``) or
    outside the window is dropped; its children become roots, so no
    self time is subtracted from a span that is not there.
    """
    remap: dict[int, int] = {}
    out = []
    for index, row in enumerate(spans):
        if row is None or (window is not None and not window[0] <= row[1] <= row[2] <= window[1]):
            continue
        remap[index] = len(out)
        out.append([row[0], row[1], row[2], remap.get(row[3], -1), row[4], row[5]])
    return out


def totals(files: list[dict], window: tuple[int, int] | None = None) -> dict[str, dict]:
    """Per-layer self time/calls/work over every process and thread."""
    merged: dict[str, dict] = {}
    for payload in files:
        for spans in payload["threads"]:
            rows = _rows(spans, window)
            stats.merge_totals(merged, stats.self_times(rows, payload["names"], ABSORB))
    return merged


def shard_skew(files: list[dict], window: tuple[int, int]) -> tuple[float, int] | None:
    """max/mean of shard bytes inside ``window`` and the shard count."""
    sizes = []
    for payload in files:
        if "runtime.shard" not in payload["names"]:
            continue
        shard_id = payload["names"].index("runtime.shard")
        for spans in payload["threads"]:
            for row in _rows(spans, window):
                if row[0] == shard_id:
                    sizes.append(row[5])
    if not sizes or not sum(sizes):
        return None
    return max(sizes) / (sum(sizes) / len(sizes)), len(sizes)


def coverage(files: list[dict], label: str) -> dict[str, float] | None:
    """Share of the root span's wall time spent in the layers below the facade.

    The self time of the root span and of ``api.infer`` is not covered:
    work in a helper no wrapper reaches shows up there and lowers the
    share.  Only the process that owns the root span counts: pool
    workers run concurrently and show up there as dispatch wait.
    """
    wall = uncovered = 0
    for payload in files:
        if payload["label"] != label or ROOT_SPAN not in payload["names"]:
            continue
        root_id = payload["names"].index(ROOT_SPAN)
        for spans in payload["threads"]:
            rows = _rows(spans)
            layer = stats.self_times(rows, payload["names"], ABSORB)
            for row in rows:
                if row[0] == root_id and row[3] < 0:
                    wall += row[2] - row[1]
            uncovered += sum(layer.get(name, {}).get("self_ns", 0) for name in UNCOVERED)
    if not wall:
        return None
    return {"share": (wall - uncovered) / wall, "wall_s": wall / 1e9,
            "uncovered_s": uncovered / 1e9}
