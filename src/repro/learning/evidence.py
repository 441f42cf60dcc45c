"""Extraction of inference examples from XML documents.

DTD inference reduces to learning one regular expression per element
name from the child-name sequences occurring below it (Section 1.2).
This module walks parsed documents and produces exactly those samples,
plus the side information the extensions need (text content for
datatype sniffing, attribute usage for ATTLIST generation).

Evidence extraction lives in :mod:`repro.learning` (not
:mod:`repro.xmlio`) because folding a document *is* learning: the
streaming representation feeds every child sequence straight into the
incremental learner states, so this module sits in the layer that owns
those states.

Two evidence representations are provided:

* :class:`CorpusEvidence` — the batch representation.  Child-name
  sequences are kept (deduplicated with multiplicities, see
  :class:`WordBag`) so any learner, including the numeric-predicate
  annotator and the noise filter, can re-read the sample.
* :class:`StreamingEvidence` — the Section 9 representation.  Each
  document is folded directly into per-element learner states
  (:class:`~repro.learning.incremental.IncrementalSOA` /
  :class:`~repro.learning.incremental.IncrementalCRX`) plus bounded
  text/attribute reservoirs, so memory is bounded by the *schema* size
  (alphabet, 2-grams, distinct occurrence profiles), not the corpus
  size.  Streaming states support :meth:`~StreamingEvidence.merge`, so
  evidence built from disjoint corpus shards combines associatively —
  the map-reduce property behind :mod:`repro.runtime.parallel`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter  # lint: allow R005 — feeds the recorder only
from collections.abc import Iterable, Iterator, Mapping

from ..errors import CorpusError
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


class WordBag:
    """A multiset of words, stored deduplicated with multiplicities.

    Real corpora repeat the same child-name sequences massively (every
    ``<book>`` with one author produces the same word), so storing a
    ``Counter`` instead of a list makes batch evidence scale with the
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


@dataclass
class ElementEvidence:
    """Everything observed about one element name across a corpus."""

    name: str
    child_sequences: WordBag = field(default_factory=WordBag)
    has_text: bool = False
    occurrences: int = 0
    attribute_values: dict[str, list[str]] = field(default_factory=dict)
    attribute_presence: dict[str, int] = field(default_factory=dict)
    text_values: list[str] = field(default_factory=list)

    def merge(self, other: "ElementEvidence") -> None:
        """Fold evidence about the same element name from another shard.

        Reservoirs concatenate in shard order and re-truncate to
        :data:`SAMPLE_CAP`; with contiguous shards this reproduces the
        batch reservoirs exactly (the first ``SAMPLE_CAP`` values in
        document order).
        """
        self.child_sequences.merge(other.child_sequences)
        self.has_text = self.has_text or other.has_text
        self.occurrences += other.occurrences
        _merge_reservoirs(self, other)

    def __post_init__(self) -> None:
        if isinstance(self.child_sequences, list):
            self.child_sequences = WordBag(self.child_sequences)


def _observe_text_and_attributes(
    evidence: ElementEvidence | StreamingElementEvidence, element: Element
) -> None:
    """Shared text/attribute bookkeeping for both evidence flavours."""
    if element.has_text():
        evidence.has_text = True
        stripped = element.text().strip()
        if stripped and len(evidence.text_values) < SAMPLE_CAP:
            evidence.text_values.append(stripped)
    for attribute, value in element.attributes.items():
        evidence.attribute_presence[attribute] = (
            evidence.attribute_presence.get(attribute, 0) + 1
        )
        samples = evidence.attribute_values.setdefault(attribute, [])
        if len(samples) < SAMPLE_CAP:
            samples.append(value)


def _merge_reservoirs(
    evidence: ElementEvidence | StreamingElementEvidence,
    other: ElementEvidence | StreamingElementEvidence,
) -> None:
    """Shared text/attribute merge for both evidence flavours."""
    if len(evidence.text_values) < SAMPLE_CAP:
        evidence.text_values.extend(
            other.text_values[: SAMPLE_CAP - len(evidence.text_values)]
        )
    for attribute, count in other.attribute_presence.items():
        evidence.attribute_presence[attribute] = (
            evidence.attribute_presence.get(attribute, 0) + count
        )
    for attribute, values in other.attribute_values.items():
        samples = evidence.attribute_values.setdefault(attribute, [])
        if len(samples) < SAMPLE_CAP:
            samples.extend(values[: SAMPLE_CAP - len(samples)])


def _majority(counts: dict[str, int]) -> str | None:
    if not counts:
        return None
    return max(sorted(counts), key=lambda name: counts[name])


@dataclass
class CorpusEvidence:
    """Per-element evidence plus corpus-level bookkeeping."""

    elements: dict[str, ElementEvidence] = field(default_factory=dict)
    roots: list[str] = field(default_factory=list)
    document_count: int = 0

    def evidence_for(self, name: str) -> ElementEvidence:
        if name not in self.elements:
            self.elements[name] = ElementEvidence(name=name)
        return self.elements[name]

    def add_element(self, element: Element) -> None:
        evidence = self.evidence_for(element.name)
        evidence.occurrences += 1
        evidence.child_sequences.add(element.child_names())
        _observe_text_and_attributes(evidence, element)

    def add_document(self, document: Document) -> None:
        self.document_count += 1
        self.roots.append(document.root.name)
        for element in document.iter():
            self.add_element(element)

    def add_documents(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add_document(document)

    def merge(self, other: "CorpusEvidence") -> None:
        """Fold evidence from another (disjoint) sub-corpus in place."""
        for name, element in other.elements.items():
            self.evidence_for(name).merge(element)
        self.roots.extend(other.roots)
        self.document_count += other.document_count

    def samples(self) -> dict[str, WordBag]:
        """Element name → the child-sequence sample for its content model."""
        return {
            name: evidence.child_sequences
            for name, evidence in self.elements.items()
        }

    def majority_root(self) -> str | None:
        return _majority(Counter(self.roots))


class StreamingElementEvidence:
    """Constant-size evidence about one element name.

    Child-name sequences are *not* retained: each one is folded into an
    :class:`IncrementalSOA` (for iDTD), an :class:`IncrementalCRX`
    (for CRX), an :class:`~repro.learning.kore.IncrementalKore` and an
    :class:`~repro.learning.sire.IncrementalSire`
    the moment it is observed, together with the counters the
    DTD layer needs (occurrences, empty/non-empty content splits) and
    the same bounded text/attribute reservoirs as the batch path.
    """

    __slots__ = (
        "name",
        "soa",
        "crx",
        "kore",
        "sire",
        "occurrences",
        "nonempty_count",
        "empty_count",
        "has_text",
        "text_values",
        "attribute_values",
        "attribute_presence",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.soa = IncrementalSOA()
        self.crx = IncrementalCRX()
        self.kore = IncrementalKore()
        self.sire = IncrementalSire()
        self.occurrences = 0
        self.nonempty_count = 0
        self.empty_count = 0
        self.has_text = False
        self.text_values: list[str] = []
        self.attribute_values: dict[str, list[str]] = {}
        self.attribute_presence: dict[str, int] = {}

    @property
    def child_alphabet(self) -> set[str]:
        """All child names ever observed below this element."""
        return self.crx.state.alphabet

    def add_sequence(
        self, word: Word, recorder: Recorder = NULL_RECORDER
    ) -> None:
        if recorder.enabled:
            # Folding runs once per element occurrence — far too hot
            # for per-call spans, so per-learner time is accumulated
            # per element name and flushed as aggregate spans.
            t0 = perf_counter()
            self.soa.add(word)
            t1 = perf_counter()
            self.crx.add(word)
            t2 = perf_counter()
            self.kore.add(word)
            t3 = perf_counter()
            self.sire.add(word)
            t4 = perf_counter()
            recorder.add_time("soa", t1 - t0, element=self.name)
            recorder.add_time("crx", t2 - t1, element=self.name)
            recorder.add_time("kore", t3 - t2, element=self.name)
            recorder.add_time("sire", t4 - t3, element=self.name)
        else:
            self.soa.add(word)
            self.crx.add(word)
            self.kore.add(word)
            self.sire.add(word)
        if word:
            self.nonempty_count += 1
        else:
            self.empty_count += 1

    def observe(
        self, element: Element, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.occurrences += 1
        self.add_sequence(element.child_names(), recorder)
        _observe_text_and_attributes(self, element)

    def merge(self, other: "StreamingElementEvidence") -> None:
        self.soa.merge(other.soa)
        self.crx.merge(other.crx)
        self.kore.merge(other.kore)
        self.sire.merge(other.sire)
        self.occurrences += other.occurrences
        self.nonempty_count += other.nonempty_count
        self.empty_count += other.empty_count
        self.has_text = self.has_text or other.has_text
        _merge_reservoirs(self, other)

    def dehydrate(self) -> dict[str, object]:
        """Everything this evidence holds, as sorted JSON-ready values.

        Learner states go through their canonical (sorted) forms;
        reservoirs keep their order because it *is* part of the state
        (first-``SAMPLE_CAP``-in-document-order semantics).
        """
        return {
            "name": self.name,
            "soa": self.soa.dehydrate(),
            "crx": self.crx.dehydrate(),
            "kore": self.kore.dehydrate(),
            "sire": self.sire.dehydrate(),
            "occurrences": self.occurrences,
            "nonempty_count": self.nonempty_count,
            "empty_count": self.empty_count,
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
        soa_payload = payload.get("soa")
        crx_payload = payload.get("crx")
        if not isinstance(soa_payload, Mapping) or not isinstance(
            crx_payload, Mapping
        ):
            raise CorpusError(
                f"element evidence for {name!r} lacks learner states"
            )
        evidence.soa = IncrementalSOA.hydrate(soa_payload)
        evidence.crx = IncrementalCRX.hydrate(crx_payload)
        kore_payload = payload.get("kore")
        sire_payload = payload.get("sire")
        if not isinstance(kore_payload, Mapping) or not isinstance(
            sire_payload, Mapping
        ):
            # Required, not defaulted: evidence written before the
            # kore/sire learners existed cannot be resumed silently
            # (the checkpoint codec version gate rejects it first).
            raise CorpusError(
                f"element evidence for {name!r} lacks kore/sire learner states"
            )
        evidence.kore = IncrementalKore.hydrate(kore_payload)
        evidence.sire = IncrementalSire.hydrate(sire_payload)
        evidence.occurrences = _payload_int(payload, "occurrences")
        evidence.nonempty_count = _payload_int(payload, "nonempty_count")
        evidence.empty_count = _payload_int(payload, "empty_count")
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


class StreamingEvidence:
    """Corpus evidence folded on the fly into learner states.

    Memory is bounded by the inferred schema's complexity (alphabet
    sizes, 2-gram sets, distinct CRX occurrence profiles) plus the
    fixed reservoirs — *not* by the number of documents or element
    occurrences, which is what Section 9 promises makes both learners
    incrementally updatable.  ``merge`` combines evidence from disjoint
    corpus shards associatively, enabling map-reduce inference.
    """

    def __init__(self) -> None:
        self.elements: dict[str, StreamingElementEvidence] = {}
        self.root_counts: Counter[str] = Counter()
        self.document_count = 0

    def evidence_for(self, name: str) -> StreamingElementEvidence:
        if name not in self.elements:
            self.elements[name] = StreamingElementEvidence(name)
        return self.elements[name]

    def add_document(
        self, document: Document, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.document_count += 1
        self.root_counts[document.root.name] += 1
        sequences = 0
        for element in document.iter():
            self.evidence_for(element.name).observe(element, recorder)
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
        for name, element in other.elements.items():
            self.evidence_for(name).merge(element)
        self.root_counts.update(other.root_counts)
        self.document_count += other.document_count

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
) -> CorpusEvidence:
    """Collect per-element evidence from a corpus of documents."""
    evidence = CorpusEvidence()
    evidence.add_documents(documents)
    if recorder.enabled:
        recorder.count("elements", len(evidence.elements))
        recorder.count(
            "child_sequences",
            sum(
                element.child_sequences.total
                for element in evidence.elements.values()
            ),
        )
    return evidence


def extract_streaming_evidence(
    documents: Iterable[Document], recorder: Recorder = NULL_RECORDER
) -> StreamingEvidence:
    """Fold a corpus directly into per-element learner states.

    Unlike :func:`extract_evidence` this never materializes the
    child-sequence sample; documents may come from a lazy iterator and
    are dropped as soon as they are folded in.
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
