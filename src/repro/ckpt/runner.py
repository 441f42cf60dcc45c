"""The checkpointed extraction loop: plan, reuse, dispatch, commit.

:func:`checkpointed_evidence` wraps
:func:`repro.runtime.parallel.parallel_evidence`: it persists progress
to a run directory and harvests previous progress from it.

The plan
--------

1. Hash every corpus document (path + content sha256).
2. Load the previous manifest, if resuming.  Walk its shards in order
   and greedily match each one's exact document-hash sequence as a
   contiguous run in the *new* corpus, never moving backwards.  A
   matched shard's cached state is loaded and verified; anything else —
   unmatched, corrupt, truncated — is dropped and its documents fall
   through to fresh parsing.
3. The positions no reused shard covers form contiguous *fresh
   segments*.  Each one runs through the one shard dispatcher,
   :func:`~repro.runtime.parallel.parallel_evidence`, with the same
   cost model and warm pools as a plain run.
4. As each fresh shard's evidence lands (in corpus order), the
   dispatcher's ``on_result`` hook commits it durably: state bytes
   first (write-tmp + fsync + rename), then the manifest naming them.
   A kill at any instant leaves a manifest whose every entry points at
   a complete state file.
5. Reused shards and fresh segments merge in corpus position
   order, which is exactly the order a serial pass would fold
   documents, so the result is byte-identical to an uninterrupted,
   uncached run (reservoir truncation included).

Matching on content hashes (not paths) means renames cost nothing, and
a changed document invalidates only the shard that contained it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from contextlib import suppress
from collections.abc import Sequence

from ..contracts import (
    check_checkpoint_resume,
    check_checkpoint_roundtrip,
    contracts_enabled,
)
from ..errors import UsageError
from ..learning import evidence as evidence_module
from ..learning.evidence import StreamingEvidence
from ..obs.recorder import NULL_RECORDER, Recorder
from ..runtime.parallel import Backend, Item, merge_evidence, parallel_evidence
from ..runtime.resilience import CRASH_EXIT_STATUS, FaultPlan
from .codec import StateDecodeError, file_sha256, read_state, write_state
from .lock import RunLock
from .manifest import (
    SHARD_DIR,
    DocumentEntry,
    Manifest,
    ShardEntry,
    load_manifest,
)


@dataclass
class _Reused:
    """One old shard found again in the new corpus, state pre-loaded."""

    start: int  # corpus position of the first document
    documents: tuple[DocumentEntry, ...]
    evidence: StreamingEvidence
    shard_entry: ShardEntry


def _caps() -> tuple[int, int]:
    """The evidence caps in force now, read from the module at call time."""
    return evidence_module.SAMPLE_CAP, evidence_module.DISTINCT_CAP


def _find_run(
    hashes: Sequence[str], needle: Sequence[str], start: int
) -> int | None:
    """First position >= ``start`` where ``needle`` occurs contiguously."""
    length = len(needle)
    if length == 0:
        return None
    limit = len(hashes) - length
    position = start
    while position <= limit:
        if hashes[position : position + length] == list(needle):
            return position
        position += 1
    return None


def _reusable_shards(
    run_dir: str,
    old: Manifest | None,
    entries: Sequence[DocumentEntry],
    recorder: Recorder,
    keep_sample: bool,
) -> list[_Reused]:
    """Match old shards against the new corpus, loading cached states.

    Greedy and forward-only: old shards committed in corpus order, so
    scanning each against a monotonically advancing position matches
    every survivable prefix/infix without quadratic rescans.
    """
    if old is None:
        return []
    if (old.sample_cap, old.distinct_cap) != _caps():
        # Reservoir truncation and bag compaction depend on the caps;
        # states written under different build constants (or before the
        # distinct cap was recorded) cannot reproduce today's bytes.
        recorder.count("ckpt.corrupt", len(old.shards))
        return []
    hashes = [entry.sha256 for entry in entries]
    reused: list[_Reused] = []
    position = 0
    for shard in old.shards:
        needle = [document.sha256 for document in shard.documents]
        found = _find_run(hashes, needle, position)
        if found is None:
            continue
        state_path = os.path.join(run_dir, SHARD_DIR, shard.state_file)
        try:
            evidence = read_state(state_path)
        except StateDecodeError:
            recorder.count("ckpt.corrupt")
            continue
        if keep_sample and evidence.compacted():
            continue
        evidence.keep_sample = keep_sample
        recorder.count("ckpt.load")
        recorder.count("ckpt.hit")
        recorder.count("ckpt.skip", len(shard.documents))
        reused.append(
            _Reused(
                start=found,
                documents=tuple(entries[found : found + len(needle)]),
                evidence=evidence,
                shard_entry=shard,
            )
        )
        position = found + len(needle)
    return reused


def _fresh_segments(
    entries: Sequence[DocumentEntry], reused: Sequence[_Reused]
) -> list[tuple[int, list[DocumentEntry]]]:
    """The contiguous corpus runs no reused shard covers."""
    covered = [False] * len(entries)
    for plan in reused:
        for offset in range(len(plan.documents)):
            covered[plan.start + offset] = True
    segments: list[tuple[int, list[DocumentEntry]]] = []
    index = 0
    while index < len(entries):
        if covered[index]:
            index += 1
            continue
        start = index
        while index < len(entries) and not covered[index]:
            index += 1
        segments.append((start, list(entries[start:index])))
    return segments


def _collect_garbage(run_dir: str, manifest: Manifest, recorder: Recorder) -> None:
    """Unlink state files the final manifest no longer references."""
    shard_dir = os.path.join(run_dir, SHARD_DIR)
    referenced = manifest.referenced_state_files()
    try:
        present = os.listdir(shard_dir)
    except OSError:
        return
    for name in present:
        if name.endswith(".state") and name not in referenced:
            with suppress(OSError):
                os.unlink(os.path.join(shard_dir, name))
                recorder.count("ckpt.gc")


def checkpointed_evidence(
    paths: Sequence[str],
    *,
    state_dir: str | os.PathLike[str],
    resume: bool = False,
    jobs: int | None = None,
    backend: Backend = "auto",
    recorder: Recorder = NULL_RECORDER,
    fault_plan: FaultPlan | None = None,
    keep_sample: bool = False,
) -> StreamingEvidence:
    """Extract streaming evidence with durable per-shard checkpoints.

    ``resume=False`` demands a pristine directory: finding a manifest
    raises :class:`~repro.errors.UsageError` rather than silently
    clobbering a previous run.  ``resume=True`` reuses every shard of
    the old manifest whose exact document-hash run still occurs in the
    new corpus — which covers both crash recovery (the committed
    prefix matches trivially) and incremental re-runs over edited
    corpora.  Either way the returned evidence is byte-identical to a
    fresh, uncached run over ``paths``.

    ``fault_plan.kill_after_shards`` hard-kills the process (exit
    status ``CRASH_EXIT_STATUS``) immediately after the named fresh
    shard commits — the hook the crash/resume property tests use.

    ``keep_sample`` builds evidence that never compacts; a cached shard
    whose evidence compacted cannot serve such a run and is re-parsed.
    """
    run_dir = os.fspath(state_dir)
    os.makedirs(os.path.join(run_dir, SHARD_DIR), exist_ok=True)
    with RunLock(run_dir):
        old = load_manifest(run_dir)
        if old is not None and not resume:
            raise UsageError(
                f"state dir {run_dir} already holds a checkpointed run; "
                "pass resume=True (--resume) to continue it, or point "
                "state_dir at a fresh directory"
            )
        entries = [
            DocumentEntry(path=os.fspath(path), sha256=file_sha256(path))
            for path in paths
        ]
        reused = _reusable_shards(
            run_dir, old if resume else None, entries, recorder, keep_sample
        )
        segments = _fresh_segments(entries, reused)

        sample_cap, distinct_cap = _caps()
        manifest = Manifest(sample_cap=sample_cap, distinct_cap=distinct_cap)
        durable = [(entry.start, entry.shard_entry) for entry in reused]
        parts = [(entry.start, entry.evidence) for entry in reused]
        shard_dir = os.path.join(run_dir, SHARD_DIR)
        pending = os.path.join(shard_dir, "pending.state")
        position = 0  # corpus position of the next fresh shard
        fresh_shards = 0  # fresh shards committed so far

        def _store_progress() -> None:
            """Rewrite the manifest from every durable entry, corpus order."""
            manifest.shards = [
                shard for _start, shard in sorted(durable, key=lambda d: d[0])
            ]
            manifest.store(run_dir)

        def _commit(
            _index: int, items: Sequence[Item], evidence: StreamingEvidence
        ) -> None:
            nonlocal position, fresh_shards
            if contracts_enabled():
                check_checkpoint_roundtrip(evidence)
            digest = write_state(pending, evidence)
            name = f"{digest[:16]}.state"
            os.replace(pending, os.path.join(shard_dir, name))
            recorder.count("ckpt.write")
            documents = tuple(entries[position : position + len(items)])
            durable.append(
                (position, ShardEntry(documents, state_file=name, digest=digest))
            )
            position += len(items)
            _store_progress()
            if fault_plan is not None and fault_plan.kills_after(fresh_shards):
                os._exit(CRASH_EXIT_STATUS)
            fresh_shards += 1

        for start, documents in segments:
            position = start
            evidence = parallel_evidence(
                [document.path for document in documents],
                jobs,
                backend,
                recorder,
                index_offset=start,
                on_result=_commit,
                keep_sample=keep_sample,
            )
            parts.append((start, evidence))
        merged = merge_evidence(
            part for _start, part in sorted(parts, key=lambda p: p[0])
        )

        manifest.complete = True
        _store_progress()
        _collect_garbage(run_dir, manifest, recorder)

        if contracts_enabled():
            check_checkpoint_roundtrip(merged)
            if reused:
                check_checkpoint_resume(merged, [entry.path for entry in entries])
        return merged
