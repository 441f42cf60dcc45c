"""The one shard dispatcher: map-reduce DTD inference (Section 9, scaled out).

Both learners keep internal state that is tiny compared to the corpus
(the SOA triple for iDTD; the arrow relation plus occurrence profiles
for CRX) and that state merges associatively.  That makes inference
embarrassingly data-parallel:

* **map** — each worker loads its shard of corpus items and folds them
  into a :class:`~repro.learning.evidence.StreamingEvidence` (constant
  memory in shard size; only file paths cross the process boundary on
  the way in, only learner states on the way out);
* **reduce** — shard states merge in shard order, which reproduces the
  batch evidence exactly (including the bounded text/attribute
  reservoirs, because shards are contiguous chunks of the corpus);
* **finalize** — one :class:`~repro.core.inference.DTDInferencer` pass
  over the merged states.

The result is byte-identical to batch inference on the same corpus —
property-tested in ``tests/runtime/test_parallel.py``.

:func:`parallel_evidence` is the only dispatcher.  Every streaming
shape of :func:`repro.api.infer` reaches the learners through it:
plain and fault-tolerant runs, session appends and the fresh segments
of a checkpointed run (:mod:`repro.ckpt`, through ``on_result``).  A
run without resilience is a run with an empty
:class:`~repro.runtime.resilience.FaultPlan` in ``on_error="strict"``
mode; the same gather loop retries failed shards under the
:class:`~repro.runtime.resilience.RetryPolicy`, honours the shard
deadline, falls back to per-document processing in the calling
process when a shard keeps failing, and quarantines unreadable
documents in ``on_error="skip"`` mode.  One load-and-fold loop
(:func:`extract_from_paths`) serves pool workers, the serial backend,
the in-process fallback and already-parsed documents alike.

Instrumentation rides the same rails as the evidence: each worker runs
a private :class:`~repro.obs.recorder.StatsRecorder`, ships its plain
``snapshot()`` dict back with the evidence, and the driver folds the
snapshots into its own recorder via ``merge_snapshot`` (tagging each
with its shard index) — the observability monoid merged alongside the
evidence monoid.

Scheduling is adaptive: ``backend="auto"`` (the default) picks
``serial``/``thread``/``process`` from the corpus size and
``os.cpu_count()`` (:func:`choose_backend`), clamps the shard count to
the CPUs, and falls back to serial when shards would hold fewer than
:data:`MIN_DOCS_PER_SHARD` documents — on small corpora pool dispatch
costs more than it saves.  Worker pools are *warm*: one process pool
and one thread pool per interpreter, lazily created, reused across
``api.infer`` calls and shut down at exit (:class:`WorkerPool`), so
repeated inferences stop paying pool startup.
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, replace
from time import sleep
from typing import TypeVar
from collections.abc import Callable, Iterable, Sequence

from ..contracts import check_merge_commutative, contracts_enabled
from ..errors import InternalError, ReproError, ShardTimeout, UsageError
from ..learning.evidence import StreamingEvidence
from ..obs.recorder import NULL_RECORDER, Recorder, Snapshot, StatsRecorder
from ..xmlio.tree import Document
from .resilience import (
    CRASH_EXIT_STATUS,
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    FaultPlan,
    InjectedShardTimeout,
    InjectedWorkerCrash,
    QuarantinedDocument,
    RetryPolicy,
    ShardRetry,
    load_document,
)

Backend = str  # "auto" | "process" | "thread" | "serial"

#: Every value ``backend=`` accepts, public for CLI/config validation.
BACKENDS = ("auto", "process", "thread", "serial")

#: The minimum-work threshold: below this many documents per shard the
#: adaptive scheduler runs serial — dispatch and state transfer cost
#: more than the parallelism recovers on corpora this small.
MIN_DOCS_PER_SHARD = 8

#: Below this many documents the adaptive scheduler prefers the thread
#: pool: threads overlap file I/O during parsing at near-zero startup
#: cost, while a process pool's spawn/transfer overhead needs a larger
#: corpus to amortize (see ``benchmarks/bench_cache.py``).
PROCESS_CORPUS_FLOOR = 64


def choose_backend(
    documents: int, jobs: int | None = None, cpus: int | None = None
) -> tuple[Backend, int]:
    """The cost model: pick ``(backend, shards)`` for ``documents``.

    ``jobs`` caps the shard count (``None`` means "up to the CPU
    count"); the result is additionally clamped to ``cpus`` — more
    workers than CPUs only adds scheduling overhead — and to the
    :data:`MIN_DOCS_PER_SHARD` work floor.  One CPU, one shard, or a
    tiny corpus all collapse to ``("serial", 1)``.
    """
    if cpus is None:
        cpus = os.cpu_count() or 1
    requested = jobs if jobs is not None else cpus
    shards = max(1, min(requested, cpus, documents // MIN_DOCS_PER_SHARD))
    if cpus <= 1 or shards <= 1:
        return "serial", 1
    if documents < PROCESS_CORPUS_FLOOR:
        return "thread", shards
    return "process", shards


class WorkerPool:
    """A lazily-created warm executor of one kind, reused across calls.

    The pool is created on first :meth:`executor` call (sized to the
    CPU count), healed transparently if a worker death broke it, and
    shut down at interpreter exit — so a service calling
    :func:`repro.api.infer` repeatedly pays process startup once, not
    per inference.

    Creation, healing and shutdown are serialized on an internal lock:
    the serve daemon's worker threads all funnel into the same warm
    pool, and an unlocked lazy create would let two first-callers race
    to build executors (one of which would leak, its workers never
    shut down).
    """

    def __init__(self, kind: Backend) -> None:
        if kind not in ("process", "thread"):
            raise UsageError(
                f"warm pools exist for 'process' and 'thread', not {kind!r}"
            )
        self.kind = kind
        self._lock = threading.Lock()
        self._executor: Executor | None = None

    @property
    def live(self) -> bool:
        """Whether a usable executor currently exists."""
        return self._executor is not None and not getattr(
            self._executor, "_broken", False
        )

    def executor(self, max_workers: int | None = None) -> Executor:
        """The warm executor, creating (or healing) it if necessary.

        ``max_workers`` only matters at creation time; both executor
        kinds spawn workers lazily up to the bound, so sizing once at
        creation covers every later shard plan.  The default sizing is
        the CPU count for process pools and the stdlib's I/O-friendly
        ``min(32, cpus + 4)`` for thread pools.
        """
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self._executor is None:
                cpus = os.cpu_count() or 1
                if self.kind == "thread":
                    workers = (
                        max_workers if max_workers else min(32, cpus + 4)
                    )
                    self._executor = ThreadPoolExecutor(max_workers=workers)
                else:
                    workers = max_workers if max_workers else cpus
                    self._executor = ProcessPoolExecutor(max_workers=workers)
            return self._executor

    def shutdown(self) -> None:
        """Shut the executor down; the next use lazily recreates it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_WARM_POOLS: dict[str, WorkerPool] = {
    "process": WorkerPool("process"),
    "thread": WorkerPool("thread"),
}


def warm_pool(kind: Backend) -> WorkerPool:
    """The process-wide warm pool for ``kind`` (``process``/``thread``).

    Every caller resolves ``kind`` through validated backend selection
    first, so a miss here is runtime bookkeeping gone wrong (a shard
    scheduled against a pool kind that was never provisioned), not a
    user mistake — hence :class:`~repro.errors.InternalError`.
    """
    try:
        return _WARM_POOLS[kind]
    except KeyError:
        raise InternalError(
            f"no warm pool provisioned for backend {kind!r} (pools exist "
            f"for: {', '.join(sorted(_WARM_POOLS))}); backend selection "
            "should have rejected this kind before dispatch"
        ) from None


def shutdown_warm_pools() -> None:
    """Shut down every warm pool (registered to run at exit).

    Safe to call repeatedly; pools recreate lazily on next use.
    """
    for pool in _WARM_POOLS.values():
        pool.shutdown()


atexit.register(shutdown_warm_pools)


_ItemT = TypeVar("_ItemT")

#: One corpus item as the dispatcher sees it: a file path, or (serial
#: backend only) an already-parsed document.
Item = Document | str

#: Called once per shard, in shard order, as its evidence lands:
#: ``(shard index, the shard's items, the shard's evidence)``.
ShardHook = Callable[[int, Sequence[Item], StreamingEvidence], None]


def shard_paths(paths: Sequence[_ItemT], shards: int) -> list[list[_ItemT]]:
    """Split ``paths`` into at most ``shards`` contiguous chunks.

    Chunks are contiguous (not round-robin) and returned in corpus
    order so that merging shard evidence left-to-right visits values in
    the same order as a sequential pass — the property that keeps the
    capped text/attribute reservoirs identical to the batch path.
    """
    paths = list(paths)
    if not paths:
        return []
    shards = max(1, min(shards, len(paths)))
    base, extra = divmod(len(paths), shards)
    chunks: list[list[_ItemT]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(paths[start : start + size])
        start += size
    return chunks


def resolve_backend(
    documents: int, jobs: int | None, backend: Backend
) -> tuple[Backend, int]:
    """Validate ``jobs``/``backend`` and pick ``(backend, shards)``.

    ``backend="auto"`` runs the :func:`choose_backend` cost model.  An
    explicit backend skips it: ``jobs=None`` then means the CPU count,
    and a single job or a single document still degrades to serial.
    ``jobs`` must be positive when given.
    """
    if backend not in BACKENDS:
        raise UsageError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be a positive integer, got {jobs}")
    if backend == "auto":
        return choose_backend(documents, jobs)
    if backend == "serial":
        return "serial", 1
    shards = jobs if jobs is not None else os.cpu_count() or 1
    if shards <= 1 or documents <= 1:
        return "serial", 1
    return backend, shards


def extract_from_paths(
    items: Iterable[Item],
    recorder: Recorder = NULL_RECORDER,
    *,
    offset: int = 0,
    plan: FaultPlan | None = None,
    on_error: str = "strict",
    report: DegradationReport | None = None,
) -> StreamingEvidence:
    """The load-and-fold loop: load each item, fold it into streaming state.

    Every streaming route into the learners runs this loop — pool
    workers, the serial backend, the in-process fallback for failing
    shards and already-parsed documents.  Items load one at a time under the
    error policy (:func:`~repro.runtime.resilience.load_document`,
    which sees corpus position ``offset + i``) and are released right
    after folding; the footprint is one document plus the learner
    states.  Quarantined documents land in ``report``.
    """
    evidence = StreamingEvidence()
    for index, item in enumerate(items, start=offset):
        document = load_document(
            item,
            index,
            plan=plan,
            on_error=on_error,
            report=report,
            recorder=recorder,
        )
        if document is None:
            continue
        label = item if isinstance(item, str) else f"<document #{index}>"
        with recorder.span("extract", file=label):
            evidence.add_document(document, recorder)
    return evidence


@dataclass(frozen=True)
class _ShardJob:
    """One attempt at one shard; picklable for process pools."""

    index: int
    items: tuple[Item, ...]
    offset: int
    attempt: int
    plan: FaultPlan
    on_error: str
    backend: Backend
    recorded: bool


_ShardResult = tuple[StreamingEvidence, "Snapshot | None", list[QuarantinedDocument]]

#: The plan of a run without fault injection.
_NO_FAULTS = FaultPlan()


def _fold_shard(job: _ShardJob, recorder: Recorder) -> _ShardResult:
    """Fold one shard's items into evidence, collecting its quarantines.

    Quarantines are counted where they happen (a worker's counters
    merge into the caller's once); the cap is enforced by the caller.
    """
    sink = DegradationReport()
    evidence = extract_from_paths(
        job.items,
        recorder,
        offset=job.offset,
        plan=job.plan,
        on_error=job.on_error,
        report=sink,
    )
    return evidence, None, sink.quarantined


def _extract_shard(
    job: _ShardJob, recorder: Recorder | None = None
) -> _ShardResult:
    """Worker body: one attempt at one shard under the fault plan.

    Module-level (not a closure) so it pickles into process pools.  A
    pool worker records into a private :class:`StatsRecorder` whose
    snapshot travels back; the serial backend passes the caller's
    ``recorder`` and returns no snapshot.  Injected crashes take the
    real exit (``os._exit``) in process-pool workers so the pool
    genuinely breaks; other backends raise :class:`InjectedWorkerCrash`
    so the gather loop takes the same retry path.
    """
    if job.plan.crashes(job.index, job.attempt):
        if job.backend == "process":
            os._exit(CRASH_EXIT_STATUS)
        raise InjectedWorkerCrash(
            f"injected fault: worker crash in shard {job.index}"
        )
    if job.plan.times_out(job.index, job.attempt):
        raise InjectedShardTimeout(
            f"injected fault: deadline breach in shard {job.index}"
        )
    if recorder is not None:
        return _fold_shard(job, recorder)
    private: Recorder = StatsRecorder() if job.recorded else NULL_RECORDER
    with private.span("shard", index=job.index, files=len(job.items)):
        evidence, _, quarantined = _fold_shard(job, private)
    snapshot = private.snapshot() if isinstance(private, StatsRecorder) else None
    return evidence, snapshot, quarantined


def _pooled_results(
    pool: WorkerPool | None,
    shard_jobs: Sequence[_ShardJob],
    *,
    policy: RetryPolicy,
    deadline: float | None,
    recorder: Recorder,
    report: DegradationReport,
    on_result: ShardHook | None = None,
) -> list[_ShardResult]:
    """Run every shard and gather the results in shard order.

    ``pool=None`` runs each shard in the calling process as it is
    gathered (the serial backend); otherwise every shard is submitted
    to the warm pool up front.  A shard whose attempt fails — an
    injected or real worker death (a broken pool heals on
    resubmission), a breached ``deadline`` — is retried under
    ``policy`` with deterministic backoff.  Once the attempts run out
    the shard is processed document by document in the calling
    process, except that a shard that keeps timing out in strict mode
    raises :class:`ShardTimeout`.  Data and
    engine errors (:class:`~repro.errors.ReproError`) are not
    transient and propagate.  Retries land in ``report``.

    Results are consumed strictly in shard order, so retries only
    change *when* a shard's evidence materializes, never its value.
    ``on_result`` fires in that order as each shard lands — the hook
    :mod:`repro.ckpt` uses to commit a durable checkpoint per shard
    before later shards are even gathered.
    """

    def submit(job: _ShardJob) -> Callable[[], _ShardResult]:
        if pool is None:
            return functools.partial(_extract_shard, job, recorder)
        future = pool.executor().submit(_extract_shard, job)
        return functools.partial(future.result, deadline)

    pending = [submit(job) for job in shard_jobs]
    results: list[_ShardResult] = []
    for index, job in enumerate(shard_jobs):
        gather = pending[index]
        failures: list[str] = []
        resharded = False
        while True:
            try:
                result = gather()
                break
            except InjectedWorkerCrash:
                reason = "worker-crash"
            except InjectedShardTimeout:
                reason = "timeout"
            except ReproError:
                raise
            except BrokenExecutor:
                # A crash injected into *another* shard makes this one a
                # collateral victim: resubmit it without charging it an
                # attempt, so its own fault schedule is undisturbed.
                if job.plan.worker_crashes and not job.plan.crashes(
                    index, job.attempt
                ):
                    recorder.count("resilience.collateral_resubmits")
                    gather = submit(job)
                    continue
                reason = "worker-crash"
            except FuturesTimeout:
                # The hung task cannot be cancelled (and shutting the
                # pool down would block on it): deadline enforcement is
                # best-effort — the retry queues behind the hung worker
                # and the in-process fallback guarantees progress.
                reason = "timeout"
            failures.append(reason)
            recorder.count(f"resilience.failures.{reason}")
            if len(failures) < policy.max_attempts:
                delay = policy.delay(index, len(failures))
                if delay > 0:
                    sleep(delay)
                job = replace(job, attempt=len(failures))
                gather = submit(job)
                continue
            if job.on_error != "skip" and failures[0] == "timeout":
                report.add_retry(
                    ShardRetry(index, len(failures) + 1, "timeout"), recorder
                )
                error = ShardTimeout(
                    f"shard {index} exceeded its deadline after "
                    f"{len(failures)} attempts (deadline={deadline}); rerun "
                    "with on_error='skip' to degrade instead"
                )
                # The run aborts, but the report already holds what was
                # degraded up to this point — travel with the error so
                # the CLI/daemon can surface the partial picture.
                error.degradation = report
                raise error
            # Worker-level faults model the worker, so they do not apply
            # in the calling process; document faults and parse failures do.
            recorder.count("resilience.resharded_serial")
            result = _fold_shard(job, recorder)
            resharded = True
            break
        if failures:
            report.add_retry(
                ShardRetry(index, len(failures) + 1, failures[0], resharded),
                recorder,
            )
        if on_result is not None:
            on_result(index, job.items, result[0])
        results.append(result)
    return results


def merge_evidence(parts: Iterable[StreamingEvidence]) -> StreamingEvidence:
    """The reduce step: fold shard evidence together, left to right.

    The first part is the accumulator — merging it into an empty state
    would only copy it, which a one-shard run (every session append)
    would pay on each call — so the parts belong to the merge.
    """
    merged: StreamingEvidence | None = None
    for part in parts:
        if merged is None:
            merged = part
            continue
        if contracts_enabled():
            check_merge_commutative(merged, part)
        merged.merge(part)
    return merged if merged is not None else StreamingEvidence()


def parallel_evidence(
    items: Sequence[Item],
    jobs: int | None = None,
    backend: Backend = "auto",
    recorder: Recorder = NULL_RECORDER,
    *,
    plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    on_error: str = "strict",
    max_quarantine: int | None = None,
    deadline: float | None = None,
    report: DegradationReport | None = None,
    index_offset: int = 0,
    on_result: ShardHook | None = None,
) -> StreamingEvidence:
    """Extract streaming evidence from ``items`` using ``jobs`` workers.

    Backend and shard count come from :func:`resolve_backend`.  Items
    are file paths; already-parsed documents can only run on the
    serial backend (they are folded in the calling process).

    The fault-tolerance knobs default to a plain run: ``plan`` injects
    faults (:class:`~repro.runtime.resilience.FaultPlan`), ``policy``
    bounds retries, ``deadline`` bounds each shard's wait,
    ``on_error="skip"`` quarantines unreadable documents into
    ``report`` (at most ``max_quarantine`` of them), and ``report``
    also receives every shard retry.  ``index_offset`` is the corpus
    position of ``items[0]``, so document faults and quarantine
    messages use corpus-global positions across calls (a session's
    appends, a checkpointed run's fresh segments).  ``on_result``
    fires once per shard in shard order (see :func:`_pooled_results`).

    With a live ``recorder``, the chosen backend is counted under
    ``parallel.backend.<name>``, each pool worker records into its own
    :class:`StatsRecorder`, and the per-shard snapshots merge into
    ``recorder`` in shard order, tagged with their shard index.
    """
    items = list(items)
    chosen, shard_count = resolve_backend(len(items), jobs, backend)
    if on_error not in ("strict", "skip"):
        raise UsageError(
            f"unknown on_error mode {on_error!r}: expected 'strict' or 'skip'"
        )
    if recorder.enabled:
        recorder.count(f"parallel.backend.{chosen}")
    plan = plan if plan is not None else _NO_FAULTS
    report = report if report is not None else DegradationReport()
    shard_jobs: list[_ShardJob] = []
    offset = index_offset
    for index, shard in enumerate(shard_paths(items, shard_count)):
        shard_jobs.append(
            _ShardJob(
                index=index,
                items=tuple(shard),
                offset=offset,
                attempt=0,
                plan=plan,
                on_error=on_error,
                backend=chosen,
                recorded=recorder.enabled,
            )
        )
        offset += len(shard)
    results = _pooled_results(
        None if chosen == "serial" else warm_pool(chosen),
        shard_jobs,
        policy=policy if policy is not None else DEFAULT_RETRY_POLICY,
        deadline=deadline,
        recorder=recorder,
        report=report,
        on_result=on_result,
    )
    merged = merge_evidence(evidence for evidence, _, _ in results)
    for index, (_, snapshot, quarantined) in enumerate(results):
        if snapshot is not None and isinstance(recorder, StatsRecorder):
            recorder.merge_snapshot(snapshot, shard=index)
            recorder.count("shards")
        for document in quarantined:
            # The cap is enforced here — once, corpus-wide, in shard
            # order; the loaders already counted each quarantine.
            report.add_quarantine(
                replace(document, shard=index), limit=max_quarantine
            )
    return merged
