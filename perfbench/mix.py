"""Closed-loop traffic for a running ``repro serve`` daemon on a unix socket.

One generator process, one keep-alive connection per client thread:
each client sends its next request only after the previous reply, as
daemon callers do.  The seeded mix is ~50% ``POST /infer`` (5-20 pool
documents), ~35% session appends of one document, ~10% session DTD
reads and ~5% ``/validate``.  Each client owns two sessions, so the
order of its appends is known and each session's final DTD can be
checked against in-process ``repro.api.infer`` over the same documents.

Driven by ``run.py`` over stdin/stdout so that traffic can take turns
with the corpus shapes: ``ready`` once sessions exist, then
``burst SECONDS`` runs every client for that long and prints the
sample counts so far; ``finish`` runs the checks, writes the JSON
result to ``--out`` and prints ``done``.  Every sample records the
burst it was taken in, and the result has each burst's wall time, so
that ``run.py`` can scale both by the host speed measured around that
burst.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import socket
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: (operation, share of requests)
MIX = (("infer", 0.50), ("append", 0.35), ("dtd", 0.10), ("validate", 0.05))
#: One keep-alive connection per CPU of the 2-CPU host the mix was sized on.
CLIENTS = 2
SESSIONS_PER_CLIENT = 2


class UnixHTTPConnection(http.client.HTTPConnection):
    def __init__(self, path: str, timeout: float = 60.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self.unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.unix_path)
        self.sock = sock


def request(conn: UnixHTTPConnection, method: str, target: str, body: object = None):
    """One request; returns ``(status, payload)`` (payload ``{}`` if not JSON)."""
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, target, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        payload = {}
    return response.status, payload


def wait_healthy(path: str, timeout: float) -> bool:
    """Poll ``/healthz`` until it answers 200 or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = UnixHTTPConnection(path, timeout=2.0)
            status, _ = request(conn, "GET", "/healthz")
            conn.close()
            if status == 200:
                return True
        except OSError:
            pass
        time.sleep(0.005)
    return False


class Client:
    """One keep-alive connection driving its share of the mix."""

    def __init__(self, index: int, seed: int, socket_path: str, pool: list[str],
                 dtd_all: str) -> None:
        self.rng = random.Random(seed * 1000 + index)
        self.conn = UnixHTTPConnection(socket_path)
        self.pool = pool
        self.dtd_all = dtd_all
        #: operation -> (latency ms, daemon's own handling ms or None, burst)
        self.samples: dict[str, list[tuple[float, float | None, int]]] = {
            name: [] for name, _ in MIX
        }
        self.burst = 0
        self.failures: list[str] = []
        self.failed = 0
        self.sessions: dict[str, list[str]] = {}
        self.error: BaseException | None = None
        for _ in range(SESSIONS_PER_CLIENT):
            status, payload = request(self.conn, "POST", "/sessions", {})
            if status != 201:
                raise RuntimeError(f"session create answered {status}: {payload}")
            session = payload["session"]
            document = self.rng.choice(pool)
            status, payload = request(
                self.conn, "POST", f"/sessions/{session}/append", {"documents": [document]}
            )
            if status != 200:
                raise RuntimeError(f"first append answered {status}: {payload}")
            self.sessions[session] = [document]

    def _pick(self) -> str:
        roll = self.rng.random()
        for name, share in MIX:
            roll -= share
            if roll < 0:
                return name
        return MIX[-1][0]

    def one(self, operation: str) -> None:
        rng = self.rng
        session = rng.choice(sorted(self.sessions))
        document = None
        if operation == "infer":
            call = ("POST", "/infer", {"documents": rng.sample(self.pool, rng.randint(5, 20))})
        elif operation == "append":
            document = rng.choice(self.pool)
            call = ("POST", f"/sessions/{session}/append", {"documents": [document]})
        elif operation == "dtd":
            call = ("GET", f"/sessions/{session}/dtd", None)
        else:
            documents = rng.sample(self.pool, rng.randint(1, 5))
            call = ("POST", "/validate", {"documents": documents, "dtd": self.dtd_all})
        start = time.perf_counter()
        status, payload = request(self.conn, *call)
        latency_ms = (time.perf_counter() - start) * 1000.0
        ok = status == 200
        if ok and document is not None:
            self.sessions[session].append(document)
        if ok and operation in ("infer", "dtd"):
            ok = payload.get("dtd", "").startswith("<!ELEMENT")
        if ok and operation == "validate":
            ok = payload.get("valid") is True
        if ok:
            # The daemon's own handling time, or None if it sent none.
            self.samples[operation].append((latency_ms, payload.get("elapsed_ms"), self.burst))
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{operation} answered {status}")

    def run_until(self, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                self.one(self._pick())
        except Exception as exc:  # reported by the main thread
            self.error = exc


def check(seed: int, conn: UnixHTTPConnection, pool: list[str], clients: list[Client]) -> dict:
    """Daemon answers equal in-process inference over the same documents."""
    from repro import api

    documents = random.Random(seed).sample(pool, 12)
    status, payload = request(conn, "POST", "/infer", {"documents": documents})
    results = {"infer": status == 200 and payload.get("dtd") == api.infer(documents).render()}
    for client in clients:
        for session, appended in client.sessions.items():
            status, payload = request(conn, "GET", f"/sessions/{session}/dtd")
            same = status == 200 and payload.get("dtd") == api.infer(appended).render()
            results[f"session {session} ({len(appended)} docs)"] = same
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--pool", required=True, help="JSON list of XML documents")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(args.pool, encoding="utf-8") as handle:
        pool = json.load(handle)
    conn = UnixHTTPConnection(args.socket)
    # Untimed: one inference over the whole pool gives the DTD that
    # /validate requests check pool documents against.
    status, payload = request(conn, "POST", "/infer", {"documents": pool})
    if status != 200:
        print(f"pool inference answered {status}", file=sys.stderr)
        return 1
    clients = [Client(index, args.seed, args.socket, pool, payload["dtd"])
               for index in range(CLIENTS)]
    print("ready", flush=True)

    walls: list[float] = []
    for line in sys.stdin:
        command = line.split()
        if not command or command[0] != "burst":
            break
        for client in clients:
            client.burst = len(walls)
        start = time.perf_counter()
        deadline = start + float(command[1])
        threads = [threading.Thread(target=client.run_until, args=(deadline,))
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        walls.append(time.perf_counter() - start)
        counts = {name: sum(len(client.samples[name]) for client in clients)
                  for name, _ in MIX}
        print(json.dumps(counts), flush=True)
    errors = [repr(client.error) for client in clients if client.error is not None]

    status, stats_payload = request(conn, "GET", "/stats")
    # None, not {}: without a /stats answer no counter is known.
    counters = stats_payload.get("counters") if status == 200 else None
    checks = {} if errors else check(args.seed, conn, pool, clients)
    conn.close()
    for client in clients:
        client.conn.close()

    samples: dict[str, list] = {name: [] for name, _ in MIX}
    for client in clients:
        for name, values in client.samples.items():
            samples[name].extend(values)
    result = {
        "burst_walls_s": walls,
        "samples": samples,
        "failed": sum(client.failed for client in clients),
        "failures": [what for client in clients for what in client.failures] + errors,
        "counters": counters,
        "checks": checks,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
