"""Seeded benchmark inputs, built from ``repro.datagen``.

Every workload's inputs come from one ``random.Random(seed)``: the same
seed writes the same files byte for byte.  The program under test only
ever sees these files (or, for the daemon, documents read from them).

* ``protein``: one-entry documents whose elements follow the Table 1
  ``corpus_behaviour`` models (Protein Sequence Database), plus one
  ~1.2 MB multi-entry document at a seeded position in the path list.
* ``wide``: documents whose elements follow Table 2 example2-example5,
  plus one repeated-symbol (k=3) element and one shuffled-block
  element from ``repro.datagen.occurrences``.

Each element first emits its model's representative sample, shuffled
(every 2-gram of a small target is witnessed, so the learners have
something definite to recover; a large target's sample is cut short by
the corpus size), then random draws.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import deque
from dataclasses import dataclass, field

from repro.datagen.corpora import REFINFO_ELEMENT_NAMES, table1_row, table2_row
from repro.datagen.occurrences import repeated_symbol_corpus, shuffled_corpus
from repro.datagen.strings import random_word, representative_sample
from repro.regex.ast import Regex
from repro.regex.parser import parse_regex

_SYMBOL = re.compile(r"\ba(\d+)\b")

#: Table 1 element -> child name for each ``aN`` symbol of its model.
PROTEIN_CHILDREN: dict[str, list[str]] = {
    "ProteinEntry": [
        "header", "protein", "organism", "reference", "complex",
        "genetics", "function", "comment", "classification", "keywords",
        "feature", "summary", "sequence",
    ],
    "organism": ["source", "common", "formal", "note", "variety"],
    "reference": ["refinfo", "accinfo", "note", "contents"],
    "refinfo": [REFINFO_ELEMENT_NAMES[f"a{i}"] for i in range(1, 10)],
    "authors": ["author", "consortium", "editor"],
    "accinfo": [
        "accession", "status", "mol_type", "seq_spec", "exp_source",
        "note", "xrefs",
    ],
    "genetics": [
        "gene", "map_position", "genome", "gene_origin", "mobile_element",
        "introns", "codon", "start_codon", "other_codon", "genetic_code",
        "intron_note", "exon",
    ],
    "function": ["description", "pathway", "catalytic_activity"],
}

#: Table 2 rows used by the wide-models workload (alphabets of 14-61).
WIDE_ROWS = ("example2", "example3", "example4", "example5")
REPEATED_SYMBOLS = ("r_anchor", "r_left", "r_right")
SHUFFLED_BLOCKS = ("s_a s_b?", "s_c+ s_d", "s_e s_f* s_g?")

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliett", "kilo", "lima", "mike", "november",
)

#: Size of the multi-entry protein document.
BIG_DOCUMENT_BYTES = 1_200_000


def _renamed(model: str, names: list[str]) -> Regex:
    return parse_regex(_SYMBOL.sub(lambda m: names[int(m.group(1)) - 1], model))


@dataclass
class _Element:
    """Word source for one element name: representative core, then random."""

    model: Regex
    rng: random.Random
    core: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        # Shuffled, so a corpus too small for the whole core still gets
        # a spread of it rather than its shortest words.
        core = representative_sample(self.model)
        self.rng.shuffle(core)
        self.core.extend(core)

    def word(self) -> tuple[str, ...]:
        if self.core:
            return self.core.popleft()
        return random_word(self.model, self.rng)


class _Listed:
    """Word source that replays a pre-drawn word list, cycling."""

    def __init__(self, words: list[tuple[str, ...]]) -> None:
        self.words = words
        self.next = 0

    def word(self) -> tuple[str, ...]:
        word = self.words[self.next % len(self.words)]
        self.next += 1
        return word


class _Writer:
    """Renders elements from their word sources and counts the evidence.

    ``words``/``distinct`` count every element occurrence, leaves
    included, as the learners fold them; ``model_words``/``model_distinct``
    count only the elements with a content model (a word source or a
    root), whose child sequences the workload is chosen for.
    """

    def __init__(self, sources: dict, rng: random.Random) -> None:
        self.sources = sources
        self.rng = rng
        self.words = 0
        self.distinct: set[tuple[str, tuple[str, ...]]] = set()
        self.model_words = 0
        self.model_distinct: set[tuple[str, tuple[str, ...]]] = set()

    def count(self, name: str, word: tuple[str, ...], modelled: bool) -> None:
        self.words += 1
        self.distinct.add((name, word))
        if modelled:
            self.model_words += 1
            self.model_distinct.add((name, word))

    def _text(self) -> str:
        return " ".join(self.rng.choice(_WORDS) for _ in range(self.rng.randint(1, 4)))

    def element(self, name: str, out: list[str], depth: int = 0) -> None:
        source = self.sources.get(name)
        word = source.word() if source is not None else ()
        self.count(name, word, source is not None)
        pad = " " * depth
        if source is None:
            out.append(f"{pad}<{name}>{self._text()}</{name}>\n")
            return
        out.append(f"{pad}<{name}>\n")
        for child in word:
            self.element(child, out, depth + 1)
        out.append(f"{pad}</{name}>\n")


@dataclass
class Corpus:
    """A written corpus: its paths in order, and what it contains."""

    paths: list[str]
    bytes: int
    writer: _Writer
    big_position: int | None = None

    @property
    def distinct_ratio(self) -> float:
        return len(self.writer.distinct) / self.writer.words

    @property
    def model_distinct_ratio(self) -> float:
        return len(self.writer.model_distinct) / self.writer.model_words

    def stats(self) -> dict[str, object]:
        return {
            "docs": len(self.paths),
            "bytes": self.bytes,
            "words": self.writer.words,
            "distinct_words": len(self.writer.distinct),
            "distinct_ratio": self.distinct_ratio,
            "model_words": self.writer.model_words,
            "model_distinct_words": len(self.writer.model_distinct),
            "model_distinct_ratio": self.model_distinct_ratio,
            "big_document_position": self.big_position,
        }


def _write(directory: str, name: str, text: str) -> tuple[str, int]:
    path = os.path.join(directory, name)
    data = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return path, len(data)


def protein_sources(rng: random.Random) -> dict[str, _Element]:
    return {
        element: _Element(_renamed(table1_row(element).corpus_behaviour, names), rng)
        for element, names in PROTEIN_CHILDREN.items()
    }


def protein_document(writer: _Writer, index: int) -> str:
    """A one-entry database: every protein document has the same root."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<ProteinDatabase>\n']
    writer.element("ProteinEntry", out, 1)
    out[1] = f' <ProteinEntry id="PE{index:06d}">\n'
    out.append("</ProteinDatabase>\n")
    writer.count("ProteinDatabase", ("ProteinEntry",), True)
    return "".join(out)


def write_protein(directory: str, seed: int, documents: int, big: bool = True) -> Corpus:
    """One-entry documents plus (``big``) one multi-entry document at a seeded spot."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    writer = _Writer(protein_sources(rng), rng)
    paths, total = [], 0
    for index in range(documents):
        path, size = _write(directory, f"entry{index:05d}.xml", protein_document(writer, index))
        paths.append(path)
        total += size
    if not big:
        return Corpus(paths, total, writer)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<ProteinDatabase>\n']
    size, index = 0, documents
    while size < BIG_DOCUMENT_BYTES:
        entry: list[str] = []
        writer.element("ProteinEntry", entry, 1)
        entry[0] = f' <ProteinEntry id="PE{index:06d}">\n'
        index += 1
        chunk = "".join(entry)
        size += len(chunk)
        out.append(chunk)
    out.append("</ProteinDatabase>\n")
    writer.count("ProteinDatabase", ("ProteinEntry",) * (index - documents), True)
    path, size = _write(directory, "database.xml", "".join(out))
    position = rng.randrange(documents + 1)
    paths.insert(position, path)
    return Corpus(paths, total + size, writer, position)


def wide_sources(rng: random.Random, documents: int) -> dict[str, object]:
    sources: dict[str, object] = {}
    for row_name in WIDE_ROWS:
        row = table2_row(row_name)
        width = len(row.original().alphabet())
        names = [f"{row_name[0]}{row_name[-1]}_{i}" for i in range(1, width + 1)]
        sources[row_name] = _Element(_renamed(row.original_dtd, names), rng)
    _, repeated = repeated_symbol_corpus(REPEATED_SYMBOLS, documents, rng, k=3)
    _, shuffled = shuffled_corpus(SHUFFLED_BLOCKS, documents, rng)
    sources["repeated"] = _Listed(repeated)
    sources["shuffled"] = _Listed(shuffled)
    return sources


WIDE_ROOT = "models"
#: Two instances of each Table 2 element per document: with ~200
#: documents that is ~400 words per model, enough that finalizing the
#: widest models (example3/example4) dominates a batch run.
WIDE_CHILDREN = (*(row for row in WIDE_ROWS for _ in range(2)), "repeated", "shuffled")


def wide_document(writer: _Writer) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n', f"<{WIDE_ROOT}>\n"]
    writer.count(WIDE_ROOT, WIDE_CHILDREN, True)
    for child in WIDE_CHILDREN:
        writer.element(child, out, 1)
    out.append(f"</{WIDE_ROOT}>\n")
    return "".join(out)


def write_wide(directory: str, seed: int, documents: int) -> Corpus:
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    writer = _Writer(wide_sources(rng, documents), rng)
    paths, total = [], 0
    for index in range(documents):
        path, size = _write(directory, f"models{index:04d}.xml", wide_document(writer))
        paths.append(path)
        total += size
    return Corpus(paths, total, writer)


def write_pool(path: str, seed: int, documents: int) -> None:
    """Protein-model documents for the daemon, as XML literals in a JSON list."""
    rng = random.Random(seed)
    writer = _Writer(protein_sources(rng), rng)
    pool = [protein_document(writer, index) for index in range(documents)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pool, handle)
