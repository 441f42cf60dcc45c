"""The evidence memory guard: bags compact into learner states.

Past :data:`~repro.learning.evidence.DISTINCT_CAP` distinct child-name
sequences an element's bag folds into the four mergeable learner
states.  The cap is patched small here, so modest corpora cross it.
Compaction must never change a rendered DTD, must keep merge a
commutative monoid, and must keep evidence size bounded as documents
grow while the distinct words do not stop.
"""

from __future__ import annotations

import random

import pytest

from repro.api import METHODS, InferenceConfig, infer
from repro.ckpt.codec import canonical_json
from repro.contracts import check_merge_commutative
from repro.datagen.occurrences import shuffled_corpus
from repro.datagen.strings import random_word
from repro.learning import evidence as evidence_module
from repro.learning.evidence import StreamingEvidence, extract_evidence
from repro.regex.ast import chain_factor
from repro.xmlio.parser import parse_document

SMALL_CAP = 8


def documents(words):
    return [
        parse_document(
            "<r>" + "".join(f"<{name}/>" for name in word) + "</r>"
        )
        for word in words
    ]


def high_distinct_words(count, seed=5):
    """Long random words over a large alphabet: nearly all distinct."""
    target = chain_factor([f"s{index}" for index in range(12)], "*")
    rng = random.Random(seed)
    return [
        random_word(target, rng, repeat_continue=0.85, max_repeat=10)
        for _ in range(count)
    ]


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(evidence_module, "DISTINCT_CAP", SMALL_CAP)


def render(corpus, method, **options):
    config = InferenceConfig(method=method, cache=False, **options)
    return infer(corpus, config=config).render()


class TestCompactedEqualsUncompacted:
    @pytest.mark.parametrize("method", METHODS)
    def test_rendered_dtds_identical(self, monkeypatch, method):
        corpus = documents(high_distinct_words(60))
        uncompacted = render(corpus, method)
        monkeypatch.setattr(evidence_module, "DISTINCT_CAP", SMALL_CAP)
        assert extract_evidence(corpus).elements["r"].compacted is not None
        assert render(corpus, method) == uncompacted

    def test_sample_readers_never_compact(self, small_cap):
        corpus = documents(high_distinct_words(60))
        for options in ({"numeric": True}, {"support_threshold": 2}):
            assert render(corpus, "auto", **options) == render(
                corpus, "auto", streaming=True, **options
            )

    def test_compaction_is_canonical_across_shardings(self, small_cap):
        corpus = documents(high_distinct_words(60))
        whole = extract_evidence(corpus)
        for cut in (3, 30, 57):
            left = extract_evidence(corpus[:cut])
            left.merge(extract_evidence(corpus[cut:]))
            assert canonical_json(left.dehydrate()) == canonical_json(
                whole.dehydrate()
            )


class TestMergeCommutes:
    def test_compacted_with_uncompacted(self, small_cap):
        corpus = documents(high_distinct_words(40))
        compacted = extract_evidence(corpus[:30])
        plain = extract_evidence(corpus[30:33])
        assert compacted.elements["r"].compacted is not None
        assert plain.elements["r"].compacted is None
        check_merge_commutative(compacted, plain)
        check_merge_commutative(plain, compacted)

    def test_two_bags_crossing_the_cap_together(self, small_cap):
        corpus = documents(high_distinct_words(12))
        left, right = extract_evidence(corpus[:6]), extract_evidence(corpus[6:])
        assert left.elements["r"].compacted is None
        assert right.elements["r"].compacted is None
        check_merge_commutative(left, right)
        left.merge(right)
        assert left.elements["r"].compacted is not None


class TestBoundedSize:
    def test_evidence_size_stops_growing(self, small_cap):
        """Permutations of ten blocks: distinct words never stop coming,
        but the learner states saturate, so compacted evidence does too."""
        blocks = [f"p{index}" for index in range(10)]
        _, words = shuffled_corpus(blocks, 1600, random.Random(3))
        sizes, bag_sizes = {}, {}
        for count in (400, 800, 1600):
            corpus = documents(words[:count])
            evidence = extract_evidence(corpus)
            assert evidence.elements["r"].compacted is not None
            sizes[count] = len(canonical_json(evidence.dehydrate()))
            kept = StreamingEvidence(keep_sample=True)
            kept.add_documents(corpus)
            bag_sizes[count] = len(canonical_json(kept.dehydrate()))
        # Only the digits of the counters may still grow (4x the
        # documents, under 1% more bytes) ...
        assert sizes[1600] < 1.01 * sizes[400]
        # ... while a bag would keep growing with the distinct words.
        assert bag_sizes[1600] > 3 * bag_sizes[400]


class TestCheckpoints:
    def test_sample_readers_reparse_compacted_shards(
        self, tmp_path, monkeypatch, small_cap
    ):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        paths = []
        for index, word in enumerate(high_distinct_words(40)):
            path = tmp_path / f"d{index:02d}.xml"
            path.write_text(
                "<r>" + "".join(f"<{name}/>" for name in word) + "</r>",
                encoding="utf-8",
            )
            paths.append(str(path))
        state = tmp_path / "run"
        infer(paths, config=InferenceConfig(state_dir=state, jobs=2))
        resumed = infer(
            paths,
            config=InferenceConfig(state_dir=state, resume=True, numeric=True),
        ).render()
        assert resumed == infer(paths, config=InferenceConfig(numeric=True)).render()
