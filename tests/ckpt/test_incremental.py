"""Incremental re-runs: only changed shards re-parse.

The manifest matches shards by *content hash runs*, so the counters
``ckpt.hit`` / ``ckpt.skip`` / ``ckpt.write`` make the reuse behaviour
directly observable: an edit invalidates exactly the shard that held
the edited document, appends re-parse only the new tail, renames cost
nothing, and corrupt cached state degrades to a re-parse instead of an
error.  Every scenario also re-asserts the headline property — the
incremental result is byte-identical to a fresh run over the new
corpus.
"""

from __future__ import annotations

import json
import os
import random

from repro.api import InferenceConfig, infer
from repro.ckpt.codec import evidence_digest
from repro.ckpt.manifest import MANIFEST_NAME, load_manifest
from repro.ckpt.runner import checkpointed_evidence
from repro.contracts import contracts_active
from repro.learning import evidence as evidence_module
from repro.obs.recorder import StatsRecorder
from repro.runtime.parallel import extract_from_paths

from .conftest import write_corpus

#: 40 documents over 4 thread shards: 10 per shard, so reuse counts
#: below are exact (sharding is by document count, not content).
COUNT = 40
JOBS = 4


def checkpointed(paths, state, resume=False):
    recorder = StatsRecorder()
    rendered = infer(
        paths,
        config=InferenceConfig(
            state_dir=state,
            resume=resume,
            jobs=JOBS,
            backend="thread",
            recorder=recorder,
            faults={},
        ),
    ).render()
    return rendered, recorder.snapshot()["counters"]


def fresh_render(paths):
    return infer(paths, config=InferenceConfig(faults={})).render()


def first_run(tmp_path):
    paths = write_corpus(tmp_path, COUNT)
    state = tmp_path / "run"
    rendered, counters = checkpointed(paths, state)
    assert counters.get("ckpt.write") == JOBS
    assert counters.get("ckpt.hit") is None
    return paths, state, rendered


class TestIncrementalReruns:
    def test_single_edit_reparses_one_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        # Rewrite one document inside the second shard with different
        # content (a fresh corpus seed guarantees different bytes).
        victim = paths[15]
        write_corpus(tmp_path, 1, seed=999, prefix="edited")
        os.replace(str(tmp_path / "edited000.xml"), victim)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.skip") == COUNT - COUNT // JOBS
        assert counters.get("ckpt.write", 0) >= 1
        assert counters.get("ckpt.gc", 0) >= 1  # the stale shard state
        assert rendered == fresh_render(paths)

    def test_appended_documents_reuse_every_old_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        extra = write_corpus(tmp_path, 4, seed=777, prefix="extra")
        paths = paths + extra

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write", 0) >= 1
        assert rendered == fresh_render(paths)

    def test_deleted_document_invalidates_only_its_shard(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        os.unlink(paths[3])
        paths = paths[:3] + paths[4:]

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.skip") == COUNT - COUNT // JOBS
        assert rendered == fresh_render(paths)

    def test_renames_are_free(self, tmp_path):
        paths, state, _ = first_run(tmp_path)
        renamed = []
        for path in paths:
            target = os.path.join(os.path.dirname(path), "moved-" + os.path.basename(path))
            os.replace(path, target)
            renamed.append(target)

        rendered, counters = checkpointed(renamed, state, resume=True)
        assert counters.get("ckpt.hit") == JOBS
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write") is None  # nothing re-parsed
        assert rendered == fresh_render(renamed)

    def test_unchanged_rerun_parses_nothing_twice(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.skip") == COUNT
        assert counters.get("ckpt.write") is None
        assert rendered == first


class TestDegradedCaches:
    def test_corrupt_state_file_degrades_to_reparse(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        manifest = load_manifest(state)
        victim = manifest.shards[1].state_file
        target = os.path.join(state, "shards", victim)
        with open(target, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"!!!")

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == 1
        assert counters.get("ckpt.hit") == JOBS - 1
        assert counters.get("ckpt.write", 0) >= 1
        assert rendered == first

    def test_v2_state_files_are_reparsed(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        shard_dir = os.path.join(state, "shards")
        for name in os.listdir(shard_dir):
            target = os.path.join(shard_dir, name)
            with open(target, "rb") as handle:
                header_line, rest = handle.read().split(b"\n", 1)
            header = dict(json.loads(header_line), version=2)
            with open(target, "wb") as handle:
                handle.write(json.dumps(header).encode() + b"\n" + rest)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert rendered == first == fresh_render(paths)

    def test_sample_cap_mismatch_drops_every_shard(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        manifest_path = os.path.join(state, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["sample_cap"] = payload["sample_cap"] + 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert counters.get("ckpt.write") == JOBS
        assert rendered == first

    def test_manifest_without_distinct_cap_is_a_mismatch(self, tmp_path):
        paths, state, first = first_run(tmp_path)
        manifest_path = os.path.join(state, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["distinct_cap"] == evidence_module.DISTINCT_CAP
        del payload["distinct_cap"]  # as written before the field existed
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert load_manifest(state).distinct_cap is None

        rendered, counters = checkpointed(paths, state, resume=True)
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert rendered == first

    def test_distinct_cap_change_reparses_to_fresh_evidence(
        self, tmp_path, monkeypatch
    ):
        """Shards compacted under another cap must not be reused."""
        rng = random.Random(3)
        paths = []
        for index in range(COUNT):
            word = [f"s{rng.randrange(12)}" for _ in range(rng.randint(1, 9))]
            path = tmp_path / f"w{index:03d}.xml"
            path.write_text(
                "<r>" + "".join(f"<{name}/>" for name in word) + "</r>",
                encoding="utf-8",
            )
            paths.append(str(path))
        state = tmp_path / "run"
        default_cap = evidence_module.DISTINCT_CAP
        monkeypatch.setattr(evidence_module, "DISTINCT_CAP", 8)
        small = checkpointed_evidence(
            paths, state_dir=state, jobs=JOBS, backend="thread"
        )
        assert small.compacted()
        assert load_manifest(state).distinct_cap == 8

        monkeypatch.setattr(evidence_module, "DISTINCT_CAP", default_cap)
        recorder = StatsRecorder()
        with contracts_active():
            resumed = checkpointed_evidence(
                paths,
                state_dir=state,
                resume=True,
                jobs=JOBS,
                backend="thread",
                recorder=recorder,
            )
        counters = recorder.snapshot()["counters"]
        assert counters.get("ckpt.corrupt") == JOBS
        assert counters.get("ckpt.hit") is None
        assert evidence_digest(resumed) == evidence_digest(
            extract_from_paths(paths)
        )
        assert load_manifest(state).distinct_cap == default_cap
        rendered, _ = checkpointed(paths, state, resume=True)
        assert rendered == fresh_render(paths)
