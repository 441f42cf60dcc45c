"""Extraction of inference evidence from XML documents.

DTD inference reduces to learning one regular expression per element
name from the child-name sequences occurring below it (Section 1.2).
This module walks parsed documents and produces exactly those samples,
plus the side information the extensions need (text content for
datatype sniffing, attribute usage for ATTLIST generation).

Evidence extraction lives in :mod:`repro.learning` (not
:mod:`repro.xmlio`) because the evidence owns the learner states every
content model is finalized from.

There is one evidence representation, :class:`StreamingEvidence`, for
every pipeline shape — batch, streaming, sharded, sessions and
checkpoints.  Per element name (:class:`StreamingElementEvidence`) it
keeps:

* the child-name sequences as a :class:`WordBag` — the *distinct*
  words with their multiplicities.  Every learner is insensitive to
  word order and reads multiplicities only through ``add_counted``
  (Section 9), and real corpora repeat the same few sequences
  massively, so folding a document costs one counter update per
  element occurrence;
* the occurrence counter and bounded text/attribute reservoirs.

Learner states are built lazily, at finalize, by
:meth:`StreamingElementEvidence.learner`: only for the methods that
actually run, folding each distinct word once.

**Memory guard.**  Section 9 promises memory bounded by the schema,
not the corpus.  An element whose bag grows past :data:`DISTINCT_CAP`
distinct words *compacts*: the bag is folded into the four mergeable
learner states (:class:`~repro.learning.incremental.IncrementalSOA`,
:class:`~repro.learning.incremental.IncrementalCRX`,
:class:`~repro.learning.kore.IncrementalKore`,
:class:`~repro.learning.sire.IncrementalSire`) and every later word
folds straight into them.  An element ends up compacted exactly when
its corpus-wide distinct count exceeds the cap, however the corpus was
sharded, so compacted evidence is as canonical as a bag.  Evidence
built with ``keep_sample=True`` never compacts: numeric predicates and
the support threshold re-read the full sample.

Evidence merges associatively (:meth:`StreamingEvidence.merge`), so
evidence built from disjoint corpus shards combines into the evidence
of the whole corpus — the map-reduce property behind
:mod:`repro.runtime.parallel`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Literal, overload

from ..errors import CorpusError, InternalError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..xmlio.tree import Document, Element
from .incremental import (
    IncrementalCRX,
    IncrementalSOA,
    _payload_int,
    _payload_strings,
)
from .kore import IncrementalKore
from .sire import IncrementalSire

Word = tuple[str, ...]

#: Reservoir bound for text and per-attribute value samples.  Datatype
#: sniffing saturates long before this; the cap is what keeps that part
#: of the evidence constant-size in corpus length.
SAMPLE_CAP = 1000

#: Distinct child-name sequences one element may hold before its bag
#: compacts into learner states (the memory guard above).  Measured
#: per element: 2000 draws from the ``repro.datagen`` Table 1/2
#: generators hold 9-1910 distinct words (1-95%; example4's
#: representative sample alone is 3367, all distinct), the fuzz shapes
#: at most 38, and the benchmark corpora at most 747 (protein) and 400
#: (wide models).  At the cap a bag of 20-name words is ~1-2 MB.
DISTINCT_CAP = 4096

Learner = IncrementalSOA | IncrementalCRX | IncrementalKore | IncrementalSire

#: The learner state each method is finalized from.
LEARNERS: dict[str, type[Learner]] = {
    "idtd": IncrementalSOA,
    "crx": IncrementalCRX,
    "kore": IncrementalKore,
    "sire": IncrementalSire,
}


class WordBag:
    """A multiset of words, stored deduplicated with multiplicities.

    Real corpora repeat the same child-name sequences massively (every
    ``<book>`` with one author produces the same word), so storing a
    ``Counter`` instead of a list makes evidence scale with the
    number of *distinct* sequences.  Multiplicities are preserved
    because CRX's quantifier inference needs them: iterating a bag
    yields each word once per occurrence, in first-seen order.
    """

    __slots__ = ("counts", "total", "nonempty_total")

    def __init__(self, words: Iterable[Word] = ()) -> None:
        self.counts: Counter[Word] = Counter()
        self.total = 0
        self.nonempty_total = 0
        for word in words:
            self.add(word)

    def add(self, word: Iterable[str], count: int = 1) -> None:
        if count <= 0:
            return
        word = tuple(word)
        self.counts[word] += count
        self.total += count
        if word:
            self.nonempty_total += count

    def distinct(self) -> Iterator[tuple[Word, int]]:
        """The ``(word, multiplicity)`` pairs, first-seen order."""
        return iter(self.counts.items())

    def distinct_words(self) -> list[Word]:
        return list(self.counts)

    def has_empty(self) -> bool:
        return self.counts.get((), 0) > 0

    def merge(self, other: "WordBag") -> None:
        for word, count in other.counts.items():
            self.add(word, count)

    def __iter__(self) -> Iterator[Word]:
        for word, count in self.counts.items():
            for _ in range(count):
                yield word

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WordBag):
            return self.counts == other.counts
        if isinstance(other, (list, tuple)):
            return self.counts == Counter(tuple(word) for word in other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"WordBag({dict(self.counts)!r})"


class StreamingElementEvidence:
    """Everything observed about one element name.

    ``child_sequences`` is the bag of distinct child-name sequences;
    ``compacted`` is ``None`` until the bag outgrows
    :data:`DISTINCT_CAP`, and from then on holds the four learner
    states (by method name) that every word — earlier and later —
    has been folded into, with the bag left empty.
    """

    __slots__ = (
        "name",
        "child_sequences",
        "compacted",
        "occurrences",
        "has_text",
        "text_values",
        "attribute_values",
        "attribute_presence",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_sequences = WordBag()
        self.compacted: dict[str, Learner] | None = None
        self.occurrences = 0
        self.has_text = False
        self.text_values: list[str] = []
        self.attribute_values: dict[str, list[str]] = {}
        self.attribute_presence: dict[str, int] = {}

    # -- counters and the sample -----------------------------------------------

    @property
    def nonempty_count(self) -> int:
        """Occurrences with at least one child element."""
        if self.compacted is not None:
            state = self.learner("crx").state
            return state.word_count - state.profiles.get(frozenset(), 0)
        return self.child_sequences.nonempty_total

    @property
    def empty_count(self) -> int:
        """Occurrences without child elements."""
        return self.occurrences - self.nonempty_count

    @property
    def child_alphabet(self) -> set[str]:
        """All child names ever observed below this element."""
        if self.compacted is not None:
            return set(self.learner("crx").state.alphabet)
        return {name for word in self.child_sequences.counts for name in word}

    def sample(self) -> WordBag:
        """The full child-sequence sample (numeric bounds, noise filter).

        Only uncompacted evidence has it: runs that re-read the sample
        build their evidence with ``keep_sample=True``.
        """
        if self.compacted is not None:
            raise InternalError(
                f"evidence for element {self.name!r} was compacted past "
                f"{DISTINCT_CAP} distinct words; re-reading the sample "
                "needs evidence built with keep_sample=True"
            )
        return self.child_sequences

    @overload
    def learner(self, method: Literal["idtd"]) -> IncrementalSOA: ...

    @overload
    def learner(self, method: Literal["crx"]) -> IncrementalCRX: ...

    @overload
    def learner(self, method: str) -> Learner: ...

    def learner(self, method: str) -> Learner:
        """The ``method`` learner state over every word observed.

        Built on demand from the bag, each distinct word folded once
        with its multiplicity; a compacted element returns its live
        state (callers must not mutate it).
        """
        if self.compacted is not None:
            return self.compacted[method]
        learner = LEARNERS[method]()
        for word, count in self.child_sequences.distinct():
            learner.add_counted(word, count)
        return learner

    def compact(self) -> dict[str, Learner]:
        """Fold the bag into every learner state and empty it."""
        if self.compacted is None:
            self.compacted = {method: self.learner(method) for method in LEARNERS}
            self.child_sequences = WordBag()
        return self.compacted

    # -- folding -----------------------------------------------------------------

    def observe(self, element: Element, cap: int | None = None) -> None:
        """Fold one occurrence; compact past ``cap`` distinct words."""
        self.occurrences += 1
        word = element.child_names()
        if self.compacted is None:
            bag = self.child_sequences
            bag.add(word)
            if cap is not None and len(bag.counts) > cap:
                self.compact()
        else:
            for learner in self.compacted.values():
                learner.add_counted(word, 1)
        if element.has_text():
            self.has_text = True
            stripped = element.text().strip()
            if stripped and len(self.text_values) < SAMPLE_CAP:
                self.text_values.append(stripped)
        for attribute, value in element.attributes.items():
            self.attribute_presence[attribute] = (
                self.attribute_presence.get(attribute, 0) + 1
            )
            samples = self.attribute_values.setdefault(attribute, [])
            if len(samples) < SAMPLE_CAP:
                samples.append(value)

    def merge(
        self, other: "StreamingElementEvidence", cap: int | None = None
    ) -> None:
        """Fold evidence about the same element name from another shard.

        Reservoirs concatenate in shard order and re-truncate to
        :data:`SAMPLE_CAP`; with contiguous shards this reproduces a
        single pass exactly (the first ``SAMPLE_CAP`` values in
        document order).
        """
        if self.compacted is None and other.compacted is None:
            self.child_sequences.merge(other.child_sequences)
            if cap is not None and len(self.child_sequences.counts) > cap:
                self.compact()
        else:
            for method, learner in self.compact().items():
                learner.merge(other.learner(method))  # type: ignore[arg-type]
        self.occurrences += other.occurrences
        self.has_text = self.has_text or other.has_text
        if len(self.text_values) < SAMPLE_CAP:
            self.text_values.extend(
                other.text_values[: SAMPLE_CAP - len(self.text_values)]
            )
        for attribute, count in other.attribute_presence.items():
            self.attribute_presence[attribute] = (
                self.attribute_presence.get(attribute, 0) + count
            )
        for attribute, values in other.attribute_values.items():
            samples = self.attribute_values.setdefault(attribute, [])
            if len(samples) < SAMPLE_CAP:
                samples.extend(values[: SAMPLE_CAP - len(samples)])

    # -- (de)hydration -------------------------------------------------------------

    def dehydrate(self) -> dict[str, object]:
        """Everything this evidence holds, as sorted JSON-ready values.

        The bag and learner states go through sorted forms; reservoirs
        keep their order because it *is* part of the state
        (first-``SAMPLE_CAP``-in-document-order semantics).
        """
        return {
            "name": self.name,
            "child_sequences": [
                [list(word), count]
                for word, count in sorted(self.child_sequences.counts.items())
            ],
            "compacted": (
                None
                if self.compacted is None
                else {
                    method: learner.dehydrate()
                    for method, learner in sorted(self.compacted.items())
                }
            ),
            "occurrences": self.occurrences,
            "has_text": self.has_text,
            "text_values": list(self.text_values),
            "attribute_values": {
                attribute: list(values)
                for attribute, values in sorted(self.attribute_values.items())
            },
            "attribute_presence": dict(sorted(self.attribute_presence.items())),
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "StreamingElementEvidence":
        """Rebuild element evidence from :meth:`dehydrate` output."""
        name = payload.get("name")
        if not isinstance(name, str):
            raise CorpusError("element evidence payload lacks a name")
        evidence = cls(name)
        raw_words = payload.get("child_sequences")
        if not isinstance(raw_words, list):
            raise CorpusError(
                f"element evidence for {name!r} lacks its child sequences"
            )
        for entry in raw_words:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not isinstance(entry[0], list)
                or not all(isinstance(symbol, str) for symbol in entry[0])
                or not isinstance(entry[1], int)
                or entry[1] <= 0
            ):
                raise CorpusError(
                    f"child sequence entry for {name!r} is malformed: {entry!r}"
                )
            evidence.child_sequences.add(entry[0], entry[1])
        raw_compacted = payload.get("compacted")
        if raw_compacted is not None:
            if not isinstance(raw_compacted, Mapping) or set(raw_compacted) != set(
                LEARNERS
            ):
                raise CorpusError(
                    f"compacted learner states for {name!r} are malformed"
                )
            if evidence.child_sequences:
                raise CorpusError(
                    f"element evidence for {name!r} is both compacted and "
                    "holds child sequences"
                )
            compacted: dict[str, Learner] = {}
            for method, learner_type in LEARNERS.items():
                state = raw_compacted[method]
                if not isinstance(state, Mapping):
                    raise CorpusError(
                        f"{method} learner state for {name!r} is malformed"
                    )
                compacted[method] = learner_type.hydrate(state)
            evidence.compacted = compacted
        evidence.occurrences = _payload_int(payload, "occurrences")
        evidence.has_text = bool(payload.get("has_text", False))
        evidence.text_values = _payload_strings(payload, "text_values")
        raw_values = payload.get("attribute_values", {})
        raw_presence = payload.get("attribute_presence", {})
        if not isinstance(raw_values, Mapping) or not isinstance(
            raw_presence, Mapping
        ):
            raise CorpusError(
                f"element evidence for {name!r} has malformed attributes"
            )
        for attribute, values in raw_values.items():
            if not isinstance(attribute, str):
                raise CorpusError(f"attribute name is not a string: {attribute!r}")
            evidence.attribute_values[attribute] = _payload_strings(
                raw_values, attribute
            )
        for attribute, count in raw_presence.items():
            if not isinstance(attribute, str) or not isinstance(count, int):
                raise CorpusError(
                    f"attribute presence entry is malformed: {attribute!r}"
                )
            evidence.attribute_presence[attribute] = count
        return evidence


def _majority(counts: dict[str, int]) -> str | None:
    if not counts:
        return None
    return max(sorted(counts), key=lambda name: counts[name])


class StreamingEvidence:
    """Per-element evidence plus corpus-level bookkeeping.

    Memory is bounded by the number of distinct child-name sequences
    per element (at most :data:`DISTINCT_CAP` before compaction) plus
    the fixed reservoirs — *not* by the number of documents or element
    occurrences.  ``keep_sample=True`` disables compaction for runs that
    re-read the full sample.  ``merge`` combines evidence from disjoint
    corpus shards associatively, enabling map-reduce inference.
    """

    def __init__(self, keep_sample: bool = False) -> None:
        self.elements: dict[str, StreamingElementEvidence] = {}
        self.root_counts: Counter[str] = Counter()
        self.document_count = 0
        self.keep_sample = keep_sample

    def _cap(self) -> int | None:
        # Looked up per call, so a patched module cap takes effect.
        return None if self.keep_sample else DISTINCT_CAP

    def evidence_for(self, name: str) -> StreamingElementEvidence:
        if name not in self.elements:
            self.elements[name] = StreamingElementEvidence(name)
        return self.elements[name]

    def add_document(
        self, document: Document, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.document_count += 1
        self.root_counts[document.root.name] += 1
        cap = self._cap()
        elements = self.elements
        sequences = 0
        for element in document.iter():
            evidence = elements.get(element.name)
            if evidence is None:
                evidence = elements[element.name] = StreamingElementEvidence(
                    element.name
                )
            evidence.observe(element, cap)
            sequences += 1
        if recorder.enabled:
            recorder.count("child_sequences", sequences)

    def add_documents(
        self, documents: Iterable[Document], recorder: Recorder = NULL_RECORDER
    ) -> None:
        for document in documents:
            self.add_document(document, recorder)

    def merge(self, other: "StreamingEvidence") -> None:
        """Fold evidence from another (disjoint) corpus shard in place."""
        cap = self._cap()
        for name, element in other.elements.items():
            self.evidence_for(name).merge(element, cap)
        self.root_counts.update(other.root_counts)
        self.document_count += other.document_count

    def compacted(self) -> bool:
        """Whether any element has compacted past :data:`DISTINCT_CAP`."""
        return any(
            element.compacted is not None for element in self.elements.values()
        )

    def majority_root(self) -> str | None:
        return _majority(self.root_counts)

    def dehydrate(self) -> dict[str, object]:
        """The whole evidence as one canonical JSON-ready document.

        Elements and root counts are emitted sorted by name, so two
        processes that folded the same documents produce byte-identical
        serializations regardless of ``PYTHONHASHSEED`` — the property
        :mod:`repro.ckpt` digests rely on.
        """
        return {
            "elements": [
                self.elements[name].dehydrate()
                for name in sorted(self.elements)
            ],
            "root_counts": [
                [name, count] for name, count in sorted(self.root_counts.items())
            ],
            "document_count": self.document_count,
        }

    @classmethod
    def hydrate(cls, payload: Mapping[str, object]) -> "StreamingEvidence":
        """Rebuild corpus evidence from :meth:`dehydrate` output."""
        evidence = cls()
        raw_elements = payload.get("elements", [])
        if not isinstance(raw_elements, list):
            raise CorpusError("evidence payload field 'elements' is not a list")
        for entry in raw_elements:
            if not isinstance(entry, Mapping):
                raise CorpusError(f"element evidence entry is malformed: {entry!r}")
            element = StreamingElementEvidence.hydrate(entry)
            if element.name in evidence.elements:
                raise CorpusError(
                    f"element evidence repeats name {element.name!r}"
                )
            evidence.elements[element.name] = element
        raw_roots = payload.get("root_counts", [])
        if not isinstance(raw_roots, list):
            raise CorpusError("evidence payload field 'root_counts' is not a list")
        for entry in raw_roots:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int)
            ):
                raise CorpusError(f"root count entry is malformed: {entry!r}")
            evidence.root_counts[entry[0]] = entry[1]
        evidence.document_count = _payload_int(payload, "document_count")
        return evidence


def extract_evidence(
    documents: Iterable[Document], recorder: Recorder = NULL_RECORDER
) -> StreamingEvidence:
    """Fold a corpus of parsed documents into evidence.

    Documents may come from a lazy iterator; each is dropped as soon as
    it is folded in.
    """
    evidence = StreamingEvidence()
    evidence.add_documents(documents, recorder)
    if recorder.enabled:
        recorder.count("elements", len(evidence.elements))
    return evidence


def child_sequences(documents: Iterable[Document], element: str) -> list[Word]:
    """The child-name sequences below every ``element`` in the corpus."""
    sequences: list[Word] = []
    for document in documents:
        for node in document.iter():
            if node.name == element:
                sequences.append(node.child_names())
    return sequences
