"""One corpus shape in a process of its own: ``api.infer`` + render.

Driven by ``run.py`` over stdin/stdout, one line per command, so the
shapes of a run can take turns call by call and each shape's samples
spread over the whole run rather than one stretch of it:

* after imports (and, for ``jobs``, starting both workers of the warm
  process pool) the process prints ``ready``;
* ``call`` runs one timed call and prints ``{"s": seconds}``;
* ``finish`` validates every source document against the reference
  ``Dtd`` through ``repro.api.validate`` (shapes in ``VALIDATING``), writes
  the JSON result to ``--out`` and prints ``done``.

Every call starts with cold content-model and language caches, like a
CLI run; the reset is outside the timed region.  Every call must render
the first call's DTD byte for byte.  With ``--trace-dir`` the span
wrappers are installed before the pool forks, an untimed first call
runs unrecorded (so one-time costs stay out of the trace), and each
timed call is wrapped in a ``bench.call`` root span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

#: Shape name -> InferenceConfig keywords.
SHAPES: dict[str, dict[str, object]] = {
    "batch": {},
    "stream": {"streaming": True, "backend": "serial"},
    "jobs": {"jobs": 2},
    "crx": {"method": "crx"},
    "kore": {"method": "kore"},
    "sire": {"method": "sire"},
}

#: Shapes that must render byte-identical DTDs share a method family.
FAMILY = {"batch": "auto", "stream": "auto", "jobs": "auto",
          "crx": "crx", "kore": "kore", "sire": "sire"}

#: Shapes whose process also validates every document against its DTD
#: (stream and jobs must render batch's DTD byte for byte instead).
VALIDATING = ("batch", "crx", "kore", "sire")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_process_pool() -> None:
    """Start both workers of the process pool the ``jobs`` shape uses."""
    from repro.runtime.parallel import warm_pool

    executor = warm_pool("process").executor()
    # One submit spawns at most one worker; two overlapping tasks
    # make the pool start both.
    futures = [executor.submit(time.sleep, 0.05) for _ in range(2)]
    for future in futures:
        future.result()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--paths", help="file with one corpus path per line")
    parser.add_argument("--out", help="where to write the JSON result")
    parser.add_argument("--trace-dir", help="record spans of the timed calls here")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit right after reporting ready")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        import spans

        # Before the pool forks, so workers inherit the wrappers.
        tracer = spans.install(args.trace_dir, f"shape-{args.shape}")
    from repro import api
    from repro.regex.language import clear_language_caches
    from repro.runtime.cache import reset_global_content_model_cache

    if args.shape == "jobs":
        warm_process_pool()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(args.paths, encoding="utf-8") as handle:
        paths = [line.rstrip("\n") for line in handle if line.strip()]
    config = api.InferenceConfig(**SHAPES[args.shape])

    def cold_caches() -> None:
        reset_global_content_model_cache()
        clear_language_caches()

    def call() -> tuple[object, str, float]:
        start = time.perf_counter()
        result = api.infer(paths, config)
        text = result.render()
        return result, text, time.perf_counter() - start

    reference = reference_text = None
    if tracer is not None:
        cold_caches()
        tracer.pause()
        reference, reference_text, _ = call()
        tracer.resume()
        call = tracer.wrap("bench.call", call, False, None)

    durations: list[float] = []
    windows: list[list[int]] = []
    mismatches = 0
    for line in sys.stdin:
        if line.strip() != "call":
            break
        cold_caches()
        if tracer is not None:
            tracer.set_request(len(durations) + 1)
        window_start = time.perf_counter_ns()
        inferred, text, seconds = call()
        windows.append([window_start, time.perf_counter_ns()])
        durations.append(seconds)
        if reference is None:
            reference, reference_text = inferred, text
        mismatches += text != reference_text
        print(json.dumps({"s": seconds}), flush=True)
    peak_mb = _peak_rss_mb()

    valid = invalid = 0
    if args.shape in VALIDATING:
        if tracer is not None:
            tracer.pause()
        report = api.validate(paths, reference.dtd)
        valid = sum(document.valid for document in report.documents)
        invalid = len(report.documents) - valid
        if tracer is not None:
            tracer.resume()
    if tracer is not None:
        from repro.runtime.parallel import shutdown_warm_pools

        shutdown_warm_pools()  # workers write their spans as they exit
        tracer.flush()
    result = {
        "shape": args.shape,
        "family": FAMILY[args.shape],
        "durations_s": durations,
        "windows_ns": windows,
        "mismatched_calls": mismatches,
        "dtd_sha256": hashlib.sha256(reference_text.encode()).hexdigest(),
        "peak_rss_mb": peak_mb,
        "validated": valid,
        "invalid": invalid,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
