"""Byte-identity pin for the iDTD engine (rewrite + repair, Sections 5-6).

``idtd_golden.json`` records the paper-syntax output of
:func:`repro.core.idtd.idtd_from_soa` on a fixed set of inputs:

* small random samples (5/20/60/200 words) of the five Table 2
  expressions — too small to be representative, so they exercise the
  repair ladder on the wide (14-61 symbol) content models;
* 400 seeded random trim SOAs (1-12 states): random state graphs of
  four edge densities with random initial and final sets and ε.

Any change to rule order, tie-breaks or label normalisation shows up
here as a changed expression.  Regenerate the file only for a
deliberate output change::

    PYTHONPATH=src python -m tests.core.test_idtd_golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.automata.soa import SOA
from repro.core.idtd import idtd_from_soa
from repro.datagen.corpora import TABLE2
from repro.datagen.strings import sample_words
from repro.errors import ReproError
from repro.learning.tinf import tinf
from repro.regex.printer import to_paper_syntax

GOLDEN = Path(__file__).with_name("idtd_golden.json")

TABLE2_SIZES = (5, 20, 60, 200)
RANDOM_SOAS = 400


def _reach(starts: set[str], edges: set[tuple[str, str]]) -> set[str]:
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        node = frontier.pop()
        for tail, head in edges:
            if tail == node and head not in seen:
                seen.add(head)
                frontier.append(head)
    return seen


def _random_soa(seed: int) -> SOA:
    """A random trim SOA: every state lies on some source-to-sink path.

    2T-INF only ever builds trim SOAs, so useless states are cut away.
    """
    rng = random.Random(seed)
    symbols = [f"s{index}" for index in range(rng.randint(1, 12))]
    density = rng.choice((0.1, 0.25, 0.4, 0.6))
    edges = {(a, b) for a in symbols for b in symbols if rng.random() < density}
    initial = {symbol for symbol in symbols if rng.random() < 0.3} or {symbols[0]}
    final = {symbol for symbol in symbols if rng.random() < 0.3} or {symbols[-1]}
    reversed_edges = {(b, a) for a, b in edges}
    useful = _reach(initial, edges) & _reach(final, reversed_edges)
    if not useful:
        useful = {symbols[0]}
        initial = final = useful
    return SOA(
        symbols=useful,
        initial=initial & useful,
        final=final & useful,
        edges={(a, b) for a, b in edges if a in useful and b in useful},
        accepts_empty=rng.random() < 0.2,
    )


def cases() -> dict[str, SOA]:
    """Every pinned input SOA, keyed by a stable case id."""
    soas: dict[str, SOA] = {}
    for row in TABLE2:
        for size in TABLE2_SIZES:
            rng = random.Random(f"{row.element}/{size}")
            words = sample_words(row.generator(), size, rng)
            soas[f"{row.element}/{size}"] = tinf(words)
    for seed in range(RANDOM_SOAS):
        soas[f"random/{seed}"] = _random_soa(seed)
    return soas


def render(soa: SOA) -> str:
    """The engine's output in paper syntax, or the typed error it raises."""
    try:
        return to_paper_syntax(idtd_from_soa(soa).regex)
    except ReproError as error:
        return f"!{type(error).__name__}"


def _mismatches(prefix: str) -> list[str]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rendered = {
        key: render(soa) for key, soa in cases().items() if key.startswith(prefix)
    }
    assert rendered and set(rendered) <= set(golden)
    return [
        f"{key}: {output!r} != golden {golden[key]!r}"
        for key, output in rendered.items()
        if output != golden[key]
    ]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(cases())


def test_table2_samples_match_golden():
    assert _mismatches("example") == []


def test_random_soas_match_golden():
    assert _mismatches("random/") == []


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {key: render(soa) for key, soa in cases().items()},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
