"""A fixed pure-Python workload that measures how fast the host is right now.

The benchmark's host is a few vCPUs of a shared machine, and its speed
drifts by 10-20% from one minute to the next: every timing of one run
is fast or slow together.  This process takes turns with the corpus
shapes, so its median call time samples the same stretch of host as
theirs, and ``run.py`` scales the run's timing metrics by it.  It
imports nothing from ``src/``, so no change to the program under test
can change its time.

The work is the kind the program does: tuples of element names built,
hashed and counted in dicts, successor sets, sorting and string joins,
with a working set of a few MB.

Driven by ``run.py`` over stdin/stdout like ``shapes.py``: ``ready``,
then ``call`` runs one timed call and prints ``{"s": seconds}``;
``finish`` writes ``{"durations_s": [...]}`` to ``--out`` and prints
``done``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

NAMES = tuple(f"e{index}" for index in range(300))
WORDS = 20000


def work() -> int:
    """One probe call's work; the same on every call."""
    rng = random.Random(12345)
    words = [tuple(rng.choice(NAMES) for _ in range(rng.randint(1, 8))) for _ in range(WORDS)]
    counts: dict[tuple[str, ...], int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    follows: dict[str, set[str]] = {}
    for word in words:
        for first, second in zip(word, word[1:]):
            follows.setdefault(first, set()).add(second)
    text = ",".join(f"({'|'.join(sorted(names))})" for _, names in sorted(follows.items()))
    return len(counts) + len(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)

    expected = work()
    print("ready", flush=True)
    durations: list[float] = []
    for line in sys.stdin:
        if line.strip() != "call":
            break
        start = time.perf_counter()
        result = work()
        durations.append(time.perf_counter() - start)
        if result != expected:
            raise RuntimeError(f"probe work returned {result}, expected {expected}")
        print(json.dumps({"s": durations[-1]}), flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"durations_s": durations}, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
