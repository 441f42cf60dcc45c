"""Span tracing installed from outside the program under test.

Nothing in ``src/repro`` knows about this module.  :func:`install`
replaces the public functions and methods of each layer with wrappers
that record a span (name, start, end, parent, request id, work) into
per-thread lists, at every name a caller binds: the defining module,
and every ``repro`` module that imported the function by name
(``repro.api.parse_file``, ``repro.runtime.parallel.parse_file``, ...).
Methods are replaced on their class, so every instance sees them.

Spans stay in memory until :meth:`Tracer.flush` writes them, once, at
the end of the process: explicitly in the benchmark's own processes,
and through a ``multiprocessing`` finalizer in forked pool workers.
Worker processes inherit the wrappers through ``fork`` (install before
the pool starts) and start with an empty span buffer.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections.abc import Callable
from multiprocessing import util as mp_util

#: (span name, module, attribute or "Class.method", opaque, work kind)
#: An opaque span records no spans nested inside it: the fold and parse
#: calls are leaves of the layer map, and their inner helpers (kore's
#: own SOA fold, parse_file's parse_document) belong to them.
TARGETS: tuple[tuple[str, str, str, bool, str | None], ...] = (
    ("api.infer", "repro.api", "infer", False, None),
    ("api.validate", "repro.api", "validate", False, None),
    ("api.session.dtd", "repro.api", "InferenceSession.current_dtd", False, None),
    ("serve.session.append", "repro.api", "InferenceSession.append", False, None),
    ("serve.handle", "repro.serve.app", "ReproApp.handle", False, "request"),
    ("xmlio.parse", "repro.xmlio.parser", "parse_file", True, "path_bytes"),
    ("xmlio.parse", "repro.xmlio.parser", "parse_document", True, "text_bytes"),
    ("xmlio.parse", "repro.xmlio.parser", "parse_bytes", True, "text_bytes"),
    ("xmlio.validate", "repro.xmlio.validate", "validate", False, None),
    ("xmlio.emit", "repro.xmlio.dtd", "Dtd.render", False, None),
    ("learning.extract", "repro.learning.evidence", "extract_evidence", False, "bag_words"),
    ("learning.extract", "repro.learning.evidence", "StreamingEvidence.add_document", False, None),
    ("learning.fold.soa", "repro.learning.incremental", "IncrementalSOA.add", True, None),
    ("learning.fold.crx", "repro.learning.incremental", "IncrementalCRX.add", True, None),
    ("learning.fold.crx", "repro.learning.incremental", "IncrementalCRX.add_counted", True, None),
    ("learning.fold.kore", "repro.learning.kore", "IncrementalKore.add", True, None),
    ("learning.fold.sire", "repro.learning.sire", "IncrementalSire.add", True, None),
    ("learning.fold.sire", "repro.learning.sire", "IncrementalSire.add_counted", True, None),
    ("learning.tinf", "repro.learning.tinf", "tinf", True, None),
    ("learning.finalize.kore", "repro.learning.kore", "IncrementalKore.infer", False, None),
    ("learning.finalize.sire", "repro.learning.sire", "IncrementalSire.infer", False, None),
    ("core.finalize", "repro.core.inference", "DTDInferencer._finalize_batch", False, None),
    ("core.finalize", "repro.core.inference", "DTDInferencer._finalize_streaming", False, None),
    ("core.model", "repro.core.inference", "DTDInferencer._content_model", False, None),
    ("core.model", "repro.core.inference", "DTDInferencer._content_model_streaming", False, None),
    ("core.finalize.idtd", "repro.core.idtd", "idtd_from_soa", False, None),
    ("core.finalize.crx", "repro.core.crx", "CrxState.infer", False, None),
    ("regex.simplify", "repro.regex.normalize", "simplify", False, None),
    ("regex.deterministic", "repro.regex.classify", "is_deterministic", False, None),
    ("regex.matches", "repro.regex.language", "matches", True, None),
    ("runtime.dispatch", "repro.runtime.parallel", "parallel_evidence", False, None),
    ("runtime.dispatch.wait", "repro.runtime.parallel", "_pooled_results", False, None),
    ("runtime.shard", "repro.runtime.parallel", "extract_from_paths", False, "paths_bytes"),
    ("runtime.merge", "repro.runtime.parallel", "merge_evidence", False, None),
    ("runtime.merge", "repro.learning.evidence", "StreamingEvidence.merge", False, None),
    ("runtime.cache", "repro.runtime.cache", "ContentModelCache.get", True, "hit"),
)

#: Modules imported before installing, so every binding site exists.
PRELOAD = (
    "repro.api",
    "repro.core.inference",
    "repro.learning.kore",
    "repro.learning.sire",
    "repro.runtime.parallel",
    "repro.runtime.resilience",
    "repro.runtime.cache",
    "repro.regex.classify",
    "repro.regex.language",
    "repro.xmlio.validate",
    "repro.serve.app",
)


def _path_bytes(path: object) -> int:
    try:
        return os.stat(path).st_size  # type: ignore[arg-type]
    except (OSError, TypeError, ValueError):
        return 0


def _work(kind: str, args: tuple, result: object) -> int:
    if kind == "path_bytes":
        return _path_bytes(args[0])
    if kind == "text_bytes":
        return len(args[0])
    if kind == "paths_bytes":
        return sum(_path_bytes(path) for path in args[0])
    if kind == "bag_words":
        return sum(element.child_sequences.total for element in result.elements.values())
    if kind == "hit":
        return int(result is not None)
    return 0


class _ThreadState:
    __slots__ = ("spans", "stack", "request", "opaque")

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.opaque = 0


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them."""

    def __init__(self, out_dir: str, label: str) -> None:
        self.out_dir = out_dir
        self.label = label
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.threads: list[_ThreadState] = []
        self.installed: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._flushed = False
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- state -----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self.threads.append(state)
        return state

    def current(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            return self._state()

    def set_request(self, request: int) -> None:
        self.current().request = request

    def pause(self) -> None:
        """Stop recording on this thread (nested calls run unrecorded)."""
        self.current().opaque += 1

    def resume(self) -> None:
        self.current().opaque -= 1

    def _after_fork(self) -> None:
        # A forked pool worker: drop the parent's spans, keep the
        # wrappers, and write this process's spans when it exits.
        state = getattr(self._local, "state", None)
        self.threads = []
        self._lock = threading.Lock()
        self._flushed = False
        self.label = "worker"
        if state is not None:
            state.spans, state.stack, state.opaque = [], [], 0
            self.threads.append(state)
        mp_util.Finalize(self, self.flush, exitpriority=10)

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, opaque: bool, work: str | None) -> Callable:
        name_id = self._name_id(name)
        local = self._local
        new_state = self._state
        clock = time.perf_counter_ns
        requests = self._requests
        new_request = work == "request"
        work_kind = None if new_request else work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            if state.opaque:
                return fn(*args, **kwargs)
            spans, stack = state.spans, state.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer_request = state.request
            if new_request:
                state.request = next(requests)
            if opaque:
                state.opaque += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if opaque:
                    state.opaque -= 1
                stack.pop()
                spans[index] = [name_id, start, end, parent, state.request, 0]
                state.request = outer_request
            if work_kind is not None:
                spans[index][5] = _work(work_kind, args, result)
            return result

        return traced

    def flush(self) -> str | None:
        """Write every closed span of this process to ``out_dir`` (once)."""
        if self._flushed:
            return None
        self._flushed = True
        path = os.path.join(self.out_dir, f"spans-{self.label}-{os.getpid()}.json")
        payload = {
            "pid": os.getpid(),
            "label": self.label,
            "names": self.names,
            "installed": self.installed,
            "threads": [[span for span in state.spans] for state in self.threads],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return path


def install(out_dir: str, label: str) -> Tracer:
    """Wrap every target at every binding site; returns the tracer."""
    import importlib

    for module in PRELOAD:
        importlib.import_module(module)
    tracer = Tracer(out_dir, label)
    for name, module_name, attribute, opaque, work in TARGETS:
        module = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            wrapped = tracer.wrap(name, original, opaque, work)
            setattr(owner, method, wrapped)
            tracer.installed.append(f"{module_name}:{attribute}")
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(name, original, opaque, work)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    tracer.installed.append(f"{loaded_name}:{key}")
    return tracer

