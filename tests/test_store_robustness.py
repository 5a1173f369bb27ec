"""Crash-consistency and hostile-disk behavior of the artifact store.

The store's hardening contract, exercised directly: checksummed entries
reject truncation and bit flips in either section (quarantined, counted,
never served or raised), orphaned temp files from crashed publishes are
swept by the recovery pass, concurrent writers and maintenance races stay
safe, and a new code fingerprint's first save drops the entries of the
old one.
"""

import json
import os
import threading

import pytest

from repro.pipeline import store as store_module
from repro.pipeline.artifact import SCHEMA_VERSION
from repro.pipeline.store import (ArtifactStore, FOOTER_PREFIX,
                                  code_fingerprint, frame_entry,
                                  unframe_entry)

#: A small current-schema document (a stand-in for a run artifact).
DOC = json.dumps({"schema": SCHEMA_VERSION, "x": 1})


@pytest.fixture()
def store(tmp_path, monkeypatch):
    # The entries here are small dicts, not run artifacts: decoding a
    # verified head yields the dict itself, so ``load`` exercises the
    # frame, the schema check and the counters on its own.
    monkeypatch.setattr(store_module, "artifact_from_dict",
                        lambda data, source, read_trace: data)
    return ArtifactStore(str(tmp_path / "store"))


def _corrupt(path, mutate):
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(mutate(raw))


def _flip(raw, index, mask):
    mutated = bytearray(raw)
    mutated[index] ^= mask
    return bytes(mutated)


class TestFraming:
    def test_round_trip(self):
        framed = frame_entry('{"x": 1}', '{"t": 2}')
        assert framed.startswith(b'{"t": 2}\n{"x": 1}\n')
        head, meta = unframe_entry(framed)
        assert head == '{"x": 1}'
        assert meta["fingerprint"] == code_fingerprint()
        assert meta["trace_bytes"] == len('{"t": 2}')

    def test_missing_footer_rejected(self):
        with pytest.raises(ValueError):
            unframe_entry(b'null\n{"x": 1}\n')

    def test_digest_mismatch_rejected(self):
        framed = frame_entry('{"x": 1}', '{"t": 2}')
        for old, new in ((b'"x": 1', b'"x": 2'), (b'"t": 2', b'"t": 3')):
            with pytest.raises(ValueError):
                unframe_entry(framed.replace(old, new))

    def test_malformed_footer_rejected(self):
        with pytest.raises(ValueError):
            unframe_entry(b"null\nbody\n%s{not json\n" % FOOTER_PREFIX)

    def test_empty_payload(self):
        head, _meta = unframe_entry(frame_entry("", ""))
        assert head == ""

    def test_every_byte_is_verified(self):
        # separators and footer included: no single flipped bit anywhere
        # in an entry survives unframing
        framed = frame_entry('{"x": 1}', '{"t": 2}')
        for index in range(len(framed)):
            for bit in range(8):
                with pytest.raises(ValueError):
                    unframe_entry(_flip(framed, index, 1 << bit))

    def test_foreign_footer_rejected(self, monkeypatch):
        framed = frame_entry('{"x": 1}')
        monkeypatch.setattr(store_module, "code_fingerprint",
                            lambda: "f" * 64)
        with pytest.raises(ValueError):
            unframe_entry(framed)


class TestCorruptionDetection:
    def test_truncated_entry_quarantined(self, store):
        store.save_json("k", DOC)
        path = store.path_for("k")
        _corrupt(path, lambda raw: raw[:len(raw) // 2])
        assert store.load("k") is None
        assert store.corrupt == 1 and store.quarantined == 1
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(store.quarantine_dir,
                                           "k.json"))

    def test_bit_flipped_entry_quarantined(self, store):
        store.save_json("k", DOC)
        _corrupt(store.path_for("k"), lambda raw: _flip(raw, 3, 0x10))
        assert store.load("k") is None
        assert store.corrupt == 1 and store.quarantined == 1

    def test_high_bit_flip_quarantined(self, store):
        # setting bit 7 of an ASCII byte leaves bytes that are not UTF-8:
        # corruption like any other flip, never a decode error
        store.save_json("k", '{"x": 1}')
        _corrupt(store.path_for("k"), lambda raw: _flip(raw, 3, 0x80))
        assert store.load("k") is None
        assert store.corrupt == 1 and store.quarantined == 1

    def test_verified_but_undecodable_payload_quarantined(self, store):
        # the frame checks bytes, the decoder checks meaning: a correctly
        # checksummed entry holding non-JSON is still corruption
        store.save_json("k", "{not json")
        assert store.load("k") is None
        assert store.corrupt == 1 and store.quarantined == 1

    def test_unified_load_contracts(self, store):
        # every failure reads the same way: absent -> miss, corrupt
        # (broken frame or undecodable payload) -> quarantined None --
        # load never raises
        assert store.load("absent") is None
        assert store.misses == 1 and store.corrupt == 0

        store.save_json("bad1", "{not json")
        store.save_json("bad2", DOC)
        _corrupt(store.path_for("bad2"), lambda raw: raw[:5])
        assert store.load("bad1") is None
        assert store.load("bad2") is None
        assert store.corrupt == 2 and store.quarantined == 2

    def test_counters_partition_outcomes(self, store):
        store.save_json("good", DOC)
        store.save_json("old-era", json.dumps({"schema": -1}))
        assert store.load("good") == json.loads(DOC)
        assert store.load("old-era") is None
        counters = store.counters()
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["corrupt"] == 0
        assert set(counters) == {"hits", "misses", "corrupt",
                                 "quarantined", "recovered"}


class TestCrashRecovery:
    def test_orphaned_tmp_swept(self, store):
        store.save_json("k", DOC)
        orphan = os.path.join(store.directory, "dead-writer.tmp")
        with open(orphan, "w") as handle:
            handle.write("partial garbage")
        assert store.recover() == ["dead-writer.tmp"]
        assert store.recovered == 1
        assert not os.path.exists(orphan)
        # the real entry is untouched
        assert store.load("k") == json.loads(DOC)

    def test_recover_on_missing_root(self, store):
        assert store.recover() == []

    def test_tmp_never_visible_as_entry(self, store):
        store.save_json("k", DOC)
        with open(os.path.join(store.directory, "crash.tmp"),
                  "w") as handle:
            handle.write("junk")
        assert store.keys() == ["k"]


class TestRaces:
    def test_concurrent_writers_same_key(self, store):
        # deterministic pipelines write identical bytes; racing writers
        # must never produce a torn entry or an exception
        payload = json.dumps({"schema": SCHEMA_VERSION,
                              "value": list(range(200))})
        errors = []

        def write_many():
            try:
                for _ in range(30):
                    store.save_json("shared", payload)
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write_many)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.load("shared") == json.loads(payload)
        assert store.corrupt == 0

    def test_clear_racing_keys(self, store):
        for index in range(40):
            store.save_json("key%02d" % index, '{"i": %d}' % index)
        errors = []

        def clear_all():
            try:
                store.clear()
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        def list_repeatedly():
            try:
                for _ in range(200):
                    for key in store.keys():
                        assert isinstance(key, str)
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=clear_all),
                   threading.Thread(target=list_repeatedly)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.keys() == []

    def test_recover_racing_writer_retries(self, store, monkeypatch):
        # a recovery sweep stealing the in-flight temp file surfaces as
        # FileNotFoundError from os.replace; save_json retries once
        real_replace = os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                os.unlink(src)          # the sweep got there first
                raise FileNotFoundError(src)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        store.save_json("k", DOC)
        assert store.load("k") == json.loads(DOC)


class TestFingerprintDirectories:
    def test_entries_live_under_the_code_fingerprint(self, store):
        store.save_json("k", DOC)
        assert store.path_for("k") == os.path.join(
            store.root, code_fingerprint(), "k.json")
        assert os.path.dirname(store.quarantine_dir) == store.directory

    def test_new_fingerprint_drops_old_entries(self, store, monkeypatch):
        store.save_json("old", DOC)
        old_directory = store.directory
        # neither a fingerprint directory nor this store's: left alone
        bystanders = [os.path.join(store.root, "notes"),
                      os.path.join(store.root, "a" * 63)]
        for path in bystanders:
            os.makedirs(path)
        with open(os.path.join(store.root, "flat.json"), "w") as handle:
            handle.write(DOC)

        monkeypatch.setattr(store_module, "code_fingerprint",
                            lambda: "e" * 64)
        assert store.keys() == []
        store.save_json("new", DOC)
        assert not os.path.exists(old_directory)
        assert store.keys() == ["new"]
        assert store.load("new") == json.loads(DOC)
        assert all(os.path.isdir(path) for path in bystanders)
        assert os.path.exists(os.path.join(store.root, "flat.json"))
        assert sorted(os.listdir(store.root)) \
            == sorted(["a" * 63, "e" * 64, "flat.json", "notes"])
