"""The repo's benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload protein-corpus --seed 1 --seconds 50 --trace 0

Run from the repository root.  Inputs are generated from ``--seed``
into ``.perfbench_work/`` (removed afterwards); the program under test
only sees those files and requests.  Each corpus shape runs in a
process of its own (``shapes.py``); the daemon runs as ``repro serve``
on a unix socket, driven closed-loop by ``mix.py``.  The shapes and the
daemon traffic take turns, so every metric samples the whole run rather
than one stretch of it.  Between every two turns a fixed pure-Python
probe (``probe.py``) times the host, and each timing is scaled by the
host slowdown measured around it, so host drift does not read as a
change in the program.

``--trace 0`` prints the end-to-end metrics, measured with no tracing
anywhere.  ``--trace 1`` prints the per-layer metrics: after untraced
turns, each shape makes one call with the span wrappers of
``spans.py`` installed (pool workers and the daemon included), and the
traced run reports its own overhead.  Outputs are checked in both
modes; any mismatch makes ``correct`` false and the exit code 1.  The
last line of standard output is the JSON result; the line before it
holds the detail (inputs, samples, checks, layer shares, provenance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import shapes  # noqa: E402
import stats  # noqa: E402

SHAPE_ORDER = tuple(shapes.SHAPES)
SETUP_REPS = 3
POOL_DOCS = 300
SOCKET = "daemon.sock"
#: The daemon's share of each run's time, in bursts of traffic this long.
DAEMON_SHARE = 0.3
BURST_S = 1.0
DAEMON = "daemon"
#: A shape's turn is one call, or as many as fit in this long.
TURN_S = 0.5
#: The median call time of the host-speed probe (``probe.py``) on the
#: host the benchmark was defined on (2 vCPUs of a shared 2.1 GHz x86-64
#: VM, Python 3.11).  Timing metrics read as on a host that fast.
PROBE_REFERENCE_S = 0.125
MIN_CALLS = 3
#: The reported latency tail.  p99 would need >= 1000 samples of each
#: operation (10 beyond it), ~25 s of traffic at ~110 req/s in every run
#: of every workload; p95's run-to-run spread on a 2-vCPU shared host
#: reached 0.29-0.37 of its median.  p90 needs 100 samples.
TAIL = 90.0
MIN_TAIL_SAMPLES = 200
#: Whole-run watchdog, inside the 180 s a run may take.
RUN_LIMIT_S = 170

#: name -> (corpus kind, documents, why)
WORKLOADS: dict[str, tuple[str, int, str]] = {
    "protein-corpus": (
        "protein", 400,
        "Table 1 protein entries plus a 1.2 MB mmap-parsed document: parse and "
        "the four-learner fold dominate; few distinct child sequences",
    ),
    "wide-models": (
        "wide", 200,
        "Table 2 example2-5 plus k=3 and shuffled elements: wide alphabets, mostly "
        "distinct child sequences, finalize (iDTD, kore) dominates",
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{shape}_mb_s": "MB/s" for shape in SHAPE_ORDER},
    "batch_peak_mb": "MB",
    "stream_peak_mb": "MB",
    "daemon_peak_mb": "MB",
    "serve_rps": "1/s",
    "infer_ms_p50": "ms",
    "infer_ms_p90": "ms",
    "append_ms_p50": "ms",
    "append_ms_p90": "ms",
}


class Children:
    """Every process this run starts; all are ended and waited for."""

    def __init__(self) -> None:
        self.started: list[subprocess.Popen] = []
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["PYTHONHASHSEED"] = "0"

    def start(self, argv: list[str], **kwargs) -> subprocess.Popen:
        # A session of its own, so stopping it also stops the pool
        # workers it forked.
        process = subprocess.Popen(argv, env=self.env, start_new_session=True, **kwargs)
        self.started.append(process)
        return process

    def talk(self, argv: list[str]) -> "Peer":
        return Peer(self.start(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               text=True, bufsize=1))

    def stop_all(self) -> None:
        for process in self.started:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            for stream in (process.stdin, process.stdout):
                if stream is not None:
                    stream.close()


class Peer:
    """A child process spoken to one line at a time."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process

    def read(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.process.args[1:4]} exited "
                               f"({self.process.wait()}) mid-conversation")
        return line.strip()

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def ask(self, command: str) -> str:
        self.send(command)
        return self.read()

    def expect(self, word: str) -> None:
        line = self.read()
        if line != word:
            raise RuntimeError(f"expected {word!r} from {self.process.args[1:4]}, got {line!r}")


# -- inputs --------------------------------------------------------------------


def make_inputs(kind: str, documents: int, seed: int, work: str):
    import corpus

    directory = os.path.join(work, "corpus")
    if kind == "protein":
        written = corpus.write_protein(directory, seed, documents)
    else:
        written = corpus.write_wide(directory, seed, documents)
    paths_file = os.path.join(work, "paths.txt")
    with open(paths_file, "w", encoding="utf-8") as handle:
        handle.write("\n".join(written.paths) + "\n")
    pool_file = os.path.join(work, "pool.json")
    corpus.write_pool(pool_file, seed + 7919, POOL_DOCS)
    return written, paths_file, pool_file


# -- daemon --------------------------------------------------------------------


def start_daemon(children: Children, trace_dir: str | None) -> tuple[subprocess.Popen, float]:
    """Launch ``repro serve`` and return it with its launch-to-healthy time."""
    import mix

    if os.path.exists(SOCKET):
        os.unlink(SOCKET)
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro"]
    else:
        argv = [sys.executable, os.path.join(HERE, "daemon_launcher.py"), trace_dir]
    argv += ["serve", "--unix", SOCKET]
    start = time.perf_counter()
    with open("daemon.err", "ab") as errors:
        process = children.start(argv, stdout=subprocess.DEVNULL, stderr=errors)
    if not mix.wait_healthy(SOCKET, timeout=30.0):
        raise RuntimeError("daemon never answered /healthz")
    return process, time.perf_counter() - start


def stop_daemon(process: subprocess.Popen) -> bool:
    import mix

    try:
        conn = mix.UnixHTTPConnection(SOCKET, timeout=10.0)
        mix.request(conn, "POST", "/shutdown")
        conn.close()
    except OSError:
        process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=30) == 0
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return False


def peak_rss_mb(pid: int) -> float | None:
    """High-water RSS of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# -- phases --------------------------------------------------------------------


def measure_setup(children: Children, tally: stats.Tally) -> list[float]:
    """Launch-to-ready of a jobs shape process plus the daemon, repeatedly."""
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        process = children.start(
            [sys.executable, os.path.join(HERE, "shapes.py"), "--shape", "jobs", "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        line = process.stdout.readline()
        worker_s = time.perf_counter() - start
        process.stdout.read()
        process.wait(timeout=60)
        ok = tally.record(line.strip() == "ready" and process.returncode == 0, "setup worker")
        daemon, daemon_s = start_daemon(children, None)
        ok = tally.record(stop_daemon(daemon), "setup daemon shutdown") and ok
        if ok:
            samples.append(worker_s + daemon_s)
    return samples


def shape_peer(children: Children, shape: str, paths_file: str,
               trace_dir: str | None = None) -> tuple[Peer, str]:
    out = os.path.abspath(f"shape-{shape}{'-traced' if trace_dir else ''}.json")
    argv = [sys.executable, os.path.join(HERE, "shapes.py"), "--shape", shape,
            "--paths", paths_file, "--out", out]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        argv += ["--trace-dir", trace_dir]
    peer = children.talk(argv)
    peer.expect("ready")
    return peer, out


def probe_peer(children: Children) -> tuple[Peer, str]:
    out = os.path.abspath("probe.json")
    peer = children.talk([sys.executable, os.path.join(HERE, "probe.py"), "--out", out])
    peer.expect("ready")
    return peer, out


def finish_shape(peer: Peer, out: str) -> dict:
    """Collect a shape's result once ``finish`` has been sent."""
    peer.expect("done")
    if peer.process.wait(timeout=60) != 0:
        raise RuntimeError(f"shape process {peer.process.args[1:4]} failed")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def take_turns(peers: dict[str, Peer], probe: Peer, traffic: Peer, seconds: float,
               min_calls: int) -> dict:
    """Shapes and daemon traffic take turns until the run's time is spent,
    with a probe call between every two turns.

    The shapes go round-robin, so each makes its calls spread evenly
    over the run; a turn is one call, or as many as fit in ``TURN_S``.
    Before each shape turn the daemon gets a burst of traffic
    (``BURST_S``) if it is behind ``DAEMON_SHARE`` of the time so far.
    The host slowdown of a turn is the mean of the probe calls on either
    side of it over ``PROBE_REFERENCE_S``; every call and burst of the
    turn carries it.  Turns continue past ``seconds`` until every shape
    has made ``min_calls`` calls and the daemon has ``MIN_TAIL_SAMPLES``
    of each timed operation.
    """
    order = list(peers)
    daemon_s = 0.0
    calls = dict.fromkeys(order, 0)
    slowdowns: dict[str, list[float]] = {name: [] for name in order + [DAEMON]}
    probe_s = [json.loads(probe.ask("call"))["s"]]
    turns = samples = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = min(calls.values()) >= min_calls and samples >= MIN_TAIL_SAMPLES
        if (elapsed >= seconds and done) or elapsed >= 2.5 * seconds:
            return {"calls": calls, "measured_s": elapsed, "daemon_s": daemon_s,
                    "probe_s": probe_s, "slowdowns": slowdowns}
        if daemon_s < DAEMON_SHARE * elapsed:
            name, made = DAEMON, 1
            turn_start = time.perf_counter()
            counts = json.loads(traffic.ask(f"burst {BURST_S}"))
            daemon_s += time.perf_counter() - turn_start
            samples = min(counts["infer"], counts["append"])
        else:
            name, made = order[turns % len(order)], 0
            turns += 1
            turn_s = 0.0
            while made == 0 or turn_s < TURN_S:
                turn_s += json.loads(peers[name].ask("call"))["s"]
                made += 1
            calls[name] += made
        probe_s.append(json.loads(probe.ask("call"))["s"])
        slowdown = (probe_s[-2] + probe_s[-1]) / 2.0 / PROBE_REFERENCE_S
        slowdowns[name].extend([slowdown] * made)


def run_traffic(children: Children, pool_file: str, seed: int,
                trace_dir: str | None) -> tuple[subprocess.Popen, Peer]:
    daemon, _ = start_daemon(children, trace_dir)
    traffic = children.talk([
        sys.executable, os.path.join(HERE, "mix.py"), "--socket", SOCKET,
        "--pool", pool_file, "--seed", str(seed), "--out", os.path.abspath("mix.json"),
    ])
    traffic.expect("ready")
    return daemon, traffic


def finish_traffic(daemon: subprocess.Popen, traffic: Peer, tally: stats.Tally) -> dict | None:
    traffic.send("finish")
    traffic.expect("done")
    code = traffic.process.wait(timeout=60)
    peak = peak_rss_mb(daemon.pid)
    tally.record(stop_daemon(daemon), "daemon shutdown")
    if not tally.record(code == 0, f"traffic generator exited {code}"):
        return None
    with open("mix.json", encoding="utf-8") as handle:
        result = json.load(handle)
    result["daemon_peak_mb"] = peak
    return result


# -- checks and metrics -----------------------------------------------------------


def check_shapes(results: dict[str, dict], documents: int, tally: stats.Tally) -> dict:
    """Per-call byte identity, same-method identity, and validation counts."""
    summary = {"calls": 0, "validated": 0, "invalid": 0, "identity_pairs": 0}
    family_sha: dict[str, tuple[str, str]] = {}
    for shape in SHAPE_ORDER:
        result = results[shape]
        calls = len(result["durations_s"])
        summary["calls"] += calls
        tally.add(calls, result["mismatched_calls"], [f"{shape} call rendered another DTD"])
        first = family_sha.setdefault(result["family"], (shape, result["dtd_sha256"]))
        if first[0] != shape:
            summary["identity_pairs"] += 1
            tally.record(first[1] == result["dtd_sha256"], f"{shape} DTD differs from {first[0]}")
        if shape in shapes.VALIDATING:
            summary["validated"] += result["validated"]
            summary["invalid"] += result["invalid"]
            tally.add(documents, documents - result["validated"],
                      [f"{shape}: {documents - result['validated']} documents not valid"])
    return summary


def check_daemon(result: dict | None, tally: stats.Tally) -> dict:
    if result is None:
        return {}
    completed = sum(len(values) for values in result["samples"].values())
    tally.add(completed + result["failed"], result["failed"], result["failures"])
    for name, ok in result["checks"].items():
        tally.record(ok, f"daemon check: {name}")
    if not result["checks"]:
        tally.record(False, "daemon checks did not run")
    return {"requests": completed + result["failed"], "checks": result["checks"]}


def latency_metrics(result: dict, slowdowns: list[float]) -> tuple[dict[str, float], dict]:
    """Latency percentiles, each sample divided by its burst's host slowdown."""
    metrics, detail = {}, {}
    for operation in ("infer", "append"):
        latencies = [latency / slowdowns[burst]
                     for latency, _, burst in result["samples"][operation]]
        detail[operation] = {
            "samples": len(latencies),
            "tail_percentile_supported": stats.tail_percentile(len(latencies)),
            "beyond_p90": stats.beyond(len(latencies), TAIL),
        }
        metrics[f"{operation}_ms_p50"] = stats.percentile(latencies, 50)
        metrics[f"{operation}_ms_p90"] = stats.percentile(latencies, TAIL)
    return metrics, detail


def end_to_end(setup: list[float], results: dict, corpus_bytes: int, daemon: dict,
               slowdowns: dict[str, list[float]]) -> dict:
    """Every end-to-end metric; call times, burst walls and latencies are
    first divided by the host slowdown measured around them."""
    metrics = {"setup_s": stats.median(setup)}
    for shape in SHAPE_ORDER:
        seconds = stats.host_scaled(results[shape]["durations_s"], slowdowns[shape])
        metrics[f"{shape}_mb_s"] = stats.mb_per_s(corpus_bytes, stats.median(seconds))
    metrics["batch_peak_mb"] = results["batch"]["peak_rss_mb"]
    metrics["stream_peak_mb"] = results["stream"]["peak_rss_mb"]
    metrics["daemon_peak_mb"] = daemon["daemon_peak_mb"]
    completed = sum(len(values) for values in daemon["samples"].values())
    metrics["serve_rps"] = completed / sum(
        stats.host_scaled(daemon["burst_walls_s"], slowdowns[DAEMON]))
    latencies, _ = latency_metrics(daemon, slowdowns[DAEMON])
    metrics.update(latencies)
    return metrics


def provenance(seed: int, args) -> dict:
    digest = hashlib.sha256()
    for directory, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": args.seconds,
        "percentiles": "nearest-rank p50 and p90; p90 needs >= 100 samples (10 beyond)",
        "throughput_base": "XML input bytes of the corpus / median host-scaled call time",
        "host_scale_base": f"call or burst time / (mean of the probe calls around it "
                           f"/ {PROBE_REFERENCE_S} s)",
    }


# -- per-layer (traced) --------------------------------------------------------------

PER_LAYER = (
    "xmlio.parse.calls", "xmlio.parse.bytes", "xmlio.parse.self_s", "xmlio.parse.mb_s",
    "learning.extract.self_s", "learning.fold.soa.self_s", "learning.fold.crx.self_s",
    "learning.fold.kore.self_s", "learning.fold.sire.self_s", "learning.words",
    "learning.distinct_ratio", "learning.model_distinct_ratio",
    "core.finalize.idtd.self_s", "core.finalize.crx.self_s",
    "core.elements", "learning.finalize.kore.self_s", "regex.deterministic.calls",
    "regex.deterministic.self_s", "learning.finalize.sire.self_s", "xmlio.emit.self_s",
    "regex.simplify.self_s", "regex.matches.calls", "regex.matches.self_s",
    "runtime.shards", "runtime.dispatch.wait_s", "runtime.merge.self_s",
    "runtime.shard_bytes_max_over_mean", "runtime.cache.lookups", "runtime.cache.hit_ratio",
    "api.infer.self_s", "serve.handle.self_s", "serve.http_ms",
    "serve.session.append.self_s", "serve.rejected", "trace.overhead_ratio",
    "trace.coverage_min",
)


def per_layer(written, plain: dict, traced: dict, daemon: dict,
              trace_root: str) -> tuple[dict, dict]:
    """Per-layer metrics from the span files of one traced call per shape
    and of the traced daemon.

    A metric taken from spans is reported only when the trace saw at
    least one span of its layer; otherwise it is left out and named in
    ``missing``, never reported as 0.
    """
    import layers

    detail: dict[str, object] = {"shapes": {}, "missing": []}
    totals: dict[str, dict] = {}
    by_shape: dict[str, dict] = {}
    traced_s = plain_s = 0.0
    coverages, skew = [], None
    for shape in SHAPE_ORDER:
        files = layers.load(os.path.join(trace_root, shape))
        expected = 3 if shape == "jobs" else 1  # jobs: parent plus two workers
        if len(files) < expected:
            detail["missing"].append(f"{shape}: {len(files)} of {expected} span files")
            continue
        window = tuple(traced[shape]["windows_ns"][0])
        shape_totals = by_shape[shape] = layers.totals(files, window)
        stats.merge_totals(totals, shape_totals)
        covered = layers.coverage(files, f"shape-{shape}")
        untraced = stats.median(plain[shape]["durations_s"])
        traced_s += traced[shape]["durations_s"][0]
        plain_s += untraced
        busy = sum(entry["self_ns"] for entry in shape_totals.values())
        top = sorted(shape_totals.items(), key=lambda item: -item[1]["self_ns"])[:6]
        detail["shapes"][shape] = {
            "traced_s": traced[shape]["durations_s"][0],
            "untraced_median_s": untraced,
            "coverage": covered,
            "top_self_share": {name: round(entry["self_ns"] / busy, 4) for name, entry in top},
        }
        if covered:
            coverages.append(covered["share"])
        if shape == "jobs":
            skew = layers.shard_skew(files, window)
    files = layers.load(os.path.join(trace_root, "daemon"))
    daemon_totals: dict[str, dict] = layers.totals(files) if files else {}
    if files:
        stats.merge_totals(totals, daemon_totals)
        detail["binding_sites"] = sorted({site for payload in files
                                          for site in payload["installed"]})
    else:
        detail["missing"].append("daemon: no span file")

    metrics: dict[str, float] = {}

    def seen(metric: str, span: str, key: str = "self_ns", source: dict = totals):
        """Record ``metric`` from ``span``'s totals if the trace saw it."""
        entry = source.get(span)
        if entry is None:
            return None
        metrics[metric] = entry[key] / 1e9 if key == "self_ns" else entry[key]
        return metrics[metric]

    seen("xmlio.parse.calls", "xmlio.parse", "calls")
    parse_bytes = seen("xmlio.parse.bytes", "xmlio.parse", "work")
    parse_s = seen("xmlio.parse.self_s", "xmlio.parse")
    if parse_s:
        metrics["xmlio.parse.mb_s"] = stats.mb_per_s(parse_bytes, parse_s)
    seen("learning.extract.self_s", "learning.extract")
    for learner in ("soa", "crx", "kore", "sire"):
        seen(f"learning.fold.{learner}.self_s", f"learning.fold.{learner}")
    if "learning.fold.soa" in totals and "learning.extract" in totals:
        # Streaming folds one word per add; batch extraction reports its words.
        metrics["learning.words"] = (totals["learning.fold.soa"]["calls"]
                                     + totals["learning.extract"]["work"])
    # Properties of the written corpus, not of the trace.
    metrics["learning.distinct_ratio"] = written.distinct_ratio
    metrics["learning.model_distinct_ratio"] = written.model_distinct_ratio
    seen("core.finalize.idtd.self_s", "core.finalize.idtd")
    seen("core.finalize.crx.self_s", "core.finalize.crx")
    seen("core.elements", "core.model", "calls")
    seen("learning.finalize.kore.self_s", "learning.finalize.kore")
    seen("learning.finalize.sire.self_s", "learning.finalize.sire")
    seen("regex.deterministic.calls", "regex.deterministic", "calls")
    seen("regex.deterministic.self_s", "regex.deterministic")
    seen("regex.simplify.self_s", "regex.simplify")
    seen("regex.matches.calls", "regex.matches", "calls")
    seen("regex.matches.self_s", "regex.matches")
    seen("xmlio.emit.self_s", "xmlio.emit")
    # The runtime layer is measured on the jobs shape alone.
    jobs = by_shape.get("jobs", {})
    seen("runtime.shards", "runtime.shard", "calls", jobs)
    seen("runtime.dispatch.wait_s", "runtime.dispatch.wait", source=jobs)
    seen("runtime.merge.self_s", "runtime.merge", source=jobs)
    if skew is not None:
        metrics["runtime.shard_bytes_max_over_mean"] = skew[0]
        detail["shard_count_base"] = skew[1]
    seen("api.infer.self_s", "api.infer")
    # Cache and serve metrics come from the daemon alone.
    lookups = seen("runtime.cache.lookups", "runtime.cache", "calls", daemon_totals)
    if lookups:
        hits = daemon_totals["runtime.cache"]["work"]
        metrics["runtime.cache.hit_ratio"] = hits / lookups
        detail["cache_hit_base"] = {"hits": hits, "lookups": lookups}
    seen("serve.handle.self_s", "serve.handle", source=daemon_totals)
    seen("serve.session.append.self_s", "serve.session.append", source=daemon_totals)
    http_ms = [latency - handle for values in daemon["samples"].values()
               for latency, handle, _ in values if handle is not None]
    if http_ms:
        metrics["serve.http_ms"] = stats.median(http_ms)
    counters = daemon["counters"]
    if counters is not None:
        # Read from a /stats answer: a counter never incremented is a real 0.
        metrics["serve.rejected"] = (counters.get("backpressure.rejected", 0)
                                     + counters.get("draining.rejected", 0))
    if plain_s > 0:
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        detail["overhead_base_s"] = {"traced": traced_s, "untraced": plain_s}
    if coverages:
        metrics["trace.coverage_min"] = min(coverages)
    detail["missing"].extend(sorted(set(PER_LAYER) - set(metrics)))
    return metrics, detail


def layer_unit(name: str) -> str:
    if name.endswith("mb_s"):
        return "MB/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if "ratio" in name or "coverage" in name or name.endswith("max_over_mean"):
        return "ratio"
    return "count"


# -- main -----------------------------------------------------------------------------


def measure(args, children: Children, tally: stats.Tally, detail: dict) -> dict[str, float]:
    kind, documents, _ = WORKLOADS[args.workload]
    work = os.getcwd()
    clock = time.perf_counter()
    phases = detail["phase_wall_s"] = {}

    def lap(name: str) -> None:
        nonlocal clock
        phases[name] = time.perf_counter() - clock
        clock = time.perf_counter()

    written, paths_file, pool_file = make_inputs(kind, documents, args.seed, work)
    detail["inputs"] = written.stats()
    lap("inputs")
    setup = [] if args.trace else measure_setup(children, tally)
    lap("setup")

    peers = {shape: shape_peer(children, shape, paths_file) for shape in SHAPE_ORDER}
    probe, probe_out = probe_peer(children)
    trace_root = os.path.join(work, "trace")
    daemon_trace = os.path.join(trace_root, "daemon") if args.trace else None
    if daemon_trace:
        os.makedirs(daemon_trace)
    daemon, traffic = run_traffic(children, pool_file, args.seed, daemon_trace)
    lap("start")
    turns = take_turns({name: peer for name, (peer, _) in peers.items()}, probe, traffic,
                       args.seconds, 2 if args.trace else MIN_CALLS)
    detail["turns"] = {key: turns[key] for key in ("calls", "measured_s", "daemon_s")}
    lap("turns")
    for peer, _ in peers.values():  # validations run side by side
        peer.send("finish")
    probe.send("finish")
    plain = {shape: finish_shape(peer, out) for shape, (peer, out) in peers.items()}
    finish_shape(probe, probe_out)
    daemon_result = finish_traffic(daemon, traffic, tally)
    lap("finish")
    detail["check"] = check_shapes(plain, len(written.paths), tally)
    detail["check"]["daemon"] = check_daemon(daemon_result, tally)
    detail["samples"] = {
        "setup_reps": len(setup),
        "calls_per_shape": {shape: len(result["durations_s"]) for shape, result in plain.items()},
        "shape_durations_s": {shape: result["durations_s"] for shape, result in plain.items()},
    }
    if daemon_result is None or tally.failed:
        return {}
    if not args.trace:
        if not tally.record(bool(setup), "no setup sample"):
            return {}
        slowdowns = turns["slowdowns"]
        _, detail["samples"]["daemon"] = latency_metrics(daemon_result, slowdowns[DAEMON])
        detail["samples"]["daemon_bursts"] = len(daemon_result["burst_walls_s"])
        unscaled = end_to_end(setup, plain, written.bytes, daemon_result,
                              {name: [1.0] * len(values) for name, values in slowdowns.items()})
        detail["host"] = {
            "probe_calls": len(turns["probe_s"]),
            "probe_median_s": stats.median(turns["probe_s"]),
            "probe_reference_s": PROBE_REFERENCE_S,
            "slowdown_median": stats.median(turns["probe_s"]) / PROBE_REFERENCE_S,
            "unscaled": unscaled,
        }
        detail["samples"]["slowdowns"] = slowdowns
        return end_to_end(setup, plain, written.bytes, daemon_result, slowdowns)

    traced = {}
    for shape in SHAPE_ORDER:
        peer, out = shape_peer(children, shape, paths_file, os.path.join(trace_root, shape))
        json.loads(peer.ask("call"))
        peer.send("finish")
        traced[shape] = finish_shape(peer, out)
        tally.add(1, traced[shape]["mismatched_calls"], [f"traced {shape} call differs"])
    lap("traced")
    metrics, detail["layers"] = per_layer(written, plain, traced, daemon_result, trace_root)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    def overrun(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(RUN_LIMIT_S)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    children = Children()
    tally = stats.Tally()
    detail: dict[str, object] = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload][2],
        "trace": args.trace,
        "provenance": provenance(args.seed, args),
    }
    try:
        os.chdir(work)
        metrics = measure(args, children, tally, detail)
    finally:
        signal.alarm(0)
        children.stop_all()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    detail["failed_share"] = {"failed": tally.failed, "attempted": tally.attempted,
                              "share": tally.share, "failures": tally.failures}
    correct = tally.failed == 0 and bool(metrics)
    units = {} if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
