"""Execution backends: sharded, data-parallel corpus processing.

* :func:`parallel_evidence` — the one shard dispatcher behind every
  streaming run: shard the corpus, extract+learn per shard in worker
  processes, merge the (tiny) learner states (and per-shard stats
  snapshots when a recorder is live), retrying, falling back and
  quarantining under the fault-tolerance policy.
* :func:`choose_backend` — the adaptive cost model behind
  ``backend="auto"``: serial/thread/process from corpus size and the
  CPU count, shards clamped to the CPUs.
* :class:`WorkerPool` / :func:`warm_pool` — process-wide warm executor
  pools, lazily created, reused across ``api.infer`` calls and shut
  down at exit (:func:`shutdown_warm_pools`).
* :class:`ContentModelCache` — the fingerprint-keyed LRU memoizing the
  per-element finalize step (see :mod:`repro.runtime.cache`).
* :class:`FaultPlan` / :class:`RetryPolicy` /
  :class:`DegradationReport` — the fault-tolerance policy the
  dispatcher applies: per-shard deadlines and retries, worker-crash
  recovery, document quarantine, deterministic fault injection (see
  :mod:`repro.runtime.resilience`).
"""

from .cache import (
    DEFAULT_CACHE_SIZE,
    ContentModelCache,
    global_content_model_cache,
    reset_global_content_model_cache,
)
from .parallel import (
    BACKENDS,
    MIN_DOCS_PER_SHARD,
    PROCESS_CORPUS_FLOOR,
    WorkerPool,
    choose_backend,
    extract_from_paths,
    merge_evidence,
    parallel_evidence,
    shard_paths,
    shutdown_warm_pools,
    warm_pool,
)
from .resilience import (
    DEFAULT_RETRY_POLICY,
    DegradationReport,
    ElementFallback,
    FaultPlan,
    QuarantinedDocument,
    RetryPolicy,
    ShardRetry,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_RETRY_POLICY",
    "MIN_DOCS_PER_SHARD",
    "PROCESS_CORPUS_FLOOR",
    "ContentModelCache",
    "DegradationReport",
    "ElementFallback",
    "FaultPlan",
    "QuarantinedDocument",
    "RetryPolicy",
    "ShardRetry",
    "WorkerPool",
    "choose_backend",
    "extract_from_paths",
    "global_content_model_cache",
    "merge_evidence",
    "parallel_evidence",
    "reset_global_content_model_cache",
    "shard_paths",
    "shutdown_warm_pools",
    "warm_pool",
]
