"""The checkpoint state codec: roundtrips, digests, corruption.

The codec is the durability boundary — everything the runner trusts
on resume went through :func:`encode_state` once.  These tests pin the
two properties the resume proof needs: decode(encode(x)) reproduces
the learner states exactly (byte-identical rendered DTDs), and any
tampering — bit flips, truncation, wrong magic/version, stale payload
length — is *detected*, never silently folded in.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.ckpt.codec import (
    StateDecodeError,
    decode_state,
    encode_state,
    evidence_digest,
    file_sha256,
    read_state,
    write_state,
)
from repro.core.inference import DTDInferencer
from repro.runtime.parallel import extract_from_paths

from .conftest import write_corpus


def render(evidence) -> str:
    return DTDInferencer()._finalize_streaming(evidence).render()


def make_evidence(tmp_path, count=12, seed=None):
    return extract_from_paths(write_corpus(tmp_path, count, seed=seed))


class TestRoundtrip:
    def test_decode_inverts_encode(self, tmp_path):
        evidence = make_evidence(tmp_path)
        restored = decode_state(encode_state(evidence))
        assert render(restored) == render(evidence)
        assert evidence_digest(restored) == evidence_digest(evidence)

    def test_digest_is_content_address(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / name).mkdir()
        one = make_evidence(tmp_path / "a", seed=5)
        same = make_evidence(tmp_path / "b", seed=5)
        other = make_evidence(tmp_path / "c", seed=6)
        assert evidence_digest(one) == evidence_digest(same)
        assert evidence_digest(one) != evidence_digest(other)

    def test_text_value_reservoir_order_survives(self, tmp_path):
        # The sample reservoirs are order-sensitive (first SAMPLE_CAP
        # values win); a codec that sorted them would still render the
        # same DTD on most corpora, so check the payload directly.
        evidence = make_evidence(tmp_path)
        element = evidence.elements["name"]
        restored = decode_state(encode_state(evidence)).elements["name"]
        assert restored.text_values == element.text_values

    def test_write_read_state_file(self, tmp_path):
        evidence = make_evidence(tmp_path)
        target = tmp_path / "shard.state"
        digest = write_state(target, evidence)
        assert digest == evidence_digest(evidence)
        assert render(read_state(target)) == render(evidence)
        assert not list(tmp_path.glob("*.tmp.*"))  # no temp debris


class TestCorruptionDetection:
    def test_flipped_payload_byte(self, tmp_path):
        data = bytearray(encode_state(make_evidence(tmp_path)))
        data[-2] ^= 0x01
        with pytest.raises(StateDecodeError):
            decode_state(bytes(data))

    def test_truncated_payload(self, tmp_path):
        data = encode_state(make_evidence(tmp_path))
        with pytest.raises(StateDecodeError):
            decode_state(data[: len(data) // 2])

    def test_wrong_magic_and_version(self, tmp_path):
        data = encode_state(make_evidence(tmp_path))
        header_line, payload = data.split(b"\n", 1)
        header = json.loads(header_line)
        for key, value in (("magic", "not-a-state"), ("version", 999)):
            bad = dict(header, **{key: value})
            blob = json.dumps(bad).encode() + b"\n" + payload
            with pytest.raises(StateDecodeError):
                decode_state(blob)

    def test_not_even_json(self):
        with pytest.raises(StateDecodeError):
            decode_state(b"<html>surprise</html>\n{}")
        with pytest.raises(StateDecodeError):
            decode_state(b"")

    def test_read_state_missing_file(self, tmp_path):
        with pytest.raises(StateDecodeError):
            read_state(tmp_path / "never-written.state")

    def test_v2_state_hits_the_version_gate(self):
        """A v2 file — learner states per element, no child-sequence
        bag — is well-formed and checksummed, yet must be refused."""
        from repro.learning.incremental import IncrementalCRX, IncrementalSOA
        from repro.learning.kore import IncrementalKore
        from repro.learning.sire import IncrementalSire

        element = {
            "name": "r",
            "soa": IncrementalSOA().dehydrate(),
            "crx": IncrementalCRX().dehydrate(),
            "kore": IncrementalKore().dehydrate(),
            "sire": IncrementalSire().dehydrate(),
            "occurrences": 1,
            "nonempty_count": 0,
            "empty_count": 1,
            "has_text": False,
            "text_values": [],
            "attribute_values": {},
            "attribute_presence": {},
        }
        payload = json.dumps(
            {"elements": [element], "root_counts": [["r", 1]], "document_count": 1},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        header = json.dumps(
            {
                "magic": "repro-ckpt-state",
                "version": 2,
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload),
            }
        ).encode()
        with pytest.raises(StateDecodeError, match="unsupported state version 2"):
            decode_state(header + b"\n" + payload + b"\n")


class TestFileSha256:
    def test_matches_hashlib_over_content(self, tmp_path):
        import hashlib

        path = tmp_path / "doc.xml"
        path.write_bytes(b"<r/>" * 1000)
        assert file_sha256(path) == hashlib.sha256(b"<r/>" * 1000).hexdigest()

    def test_rename_preserves_hash(self, tmp_path):
        path = tmp_path / "before.xml"
        path.write_text("<r><item><name>x</name></item></r>")
        digest = file_sha256(path)
        moved = tmp_path / "after.xml"
        path.rename(moved)
        assert file_sha256(moved) == digest
