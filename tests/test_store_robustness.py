"""Crash-consistency and hostile-disk behavior of the artifact store.

The store's hardening contract, exercised directly: checksummed entries
reject truncation and bit flips (quarantined, counted, never served),
orphaned temp files from crashed publishes are swept by the recovery
pass, concurrent writers and maintenance races stay safe, and GC evicts
exactly the unreachable and least-recently-used entries.
"""

import json
import os
import threading
import time

import pytest

from repro.pipeline.store import (ArtifactStore, FOOTER_PREFIX,
                                  code_fingerprint, frame_entry,
                                  unframe_entry)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _corrupt(path, mutate):
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(mutate(raw))


class TestFraming:
    def test_round_trip(self):
        payload = '{"x": 1}'
        body, meta = unframe_entry(frame_entry(payload))
        assert body == payload
        assert meta["fingerprint"] == code_fingerprint()

    def test_missing_footer_rejected(self):
        with pytest.raises(ValueError):
            unframe_entry('{"x": 1}\n')

    def test_digest_mismatch_rejected(self):
        framed = frame_entry('{"x": 1}')
        tampered = framed.replace('"x": 1', '"x": 2')
        with pytest.raises(ValueError):
            unframe_entry(tampered)

    def test_malformed_footer_rejected(self):
        with pytest.raises(ValueError):
            unframe_entry("body\n%s{not json\n" % FOOTER_PREFIX)

    def test_empty_payload(self):
        body, _meta = unframe_entry(frame_entry(""))
        assert body == ""


class TestCorruptionDetection:
    def test_truncated_entry_quarantined(self, store):
        store.save_json("k", '{"x": 1}')
        path = store.path_for("k")
        _corrupt(path, lambda raw: raw[:len(raw) // 2])
        assert store.load_json("k") is None
        assert store.corrupt == 1 and store.quarantined == 1
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(store.quarantine_dir,
                                           "k.json"))

    def test_bit_flipped_entry_quarantined(self, store):
        store.save_json("k", '{"x": 1}')

        def flip(raw):
            mutated = bytearray(raw)
            mutated[3] ^= 0x10
            return bytes(mutated)

        _corrupt(store.path_for("k"), flip)
        assert store.load_json("k") is None
        assert store.corrupt == 1 and store.quarantined == 1

    def test_verified_but_undecodable_payload_quarantined(self, store):
        # the frame checks bytes, load_json checks meaning: a correctly
        # checksummed entry holding non-JSON is still corruption
        store.save_json("k", "{not json")
        assert store.load_json("k") is None
        assert store.corrupt == 1 and store.quarantined == 1

    def test_unified_load_contracts(self, store):
        # load() and load_json() classify identically: absent -> miss,
        # corrupt -> quarantined None -- neither ever raises
        assert store.load("absent") is None
        assert store.load_json("absent") is None
        assert store.misses == 2 and store.corrupt == 0

        store.save_json("bad1", "{not json")
        store.save_json("bad2", "{not json")
        assert store.load("bad1") is None
        assert store.load_json("bad2") is None
        assert store.corrupt == 2 and store.quarantined == 2

    def test_counters_partition_outcomes(self, store):
        store.save_json("good", '{"x": 1}')
        assert store.load_json("good") == '{"x": 1}'
        counters = store.counters()
        assert counters["hits"] == 1 and counters["misses"] == 0
        assert set(counters) == {"hits", "misses", "corrupt",
                                 "quarantined", "recovered", "evicted"}


class TestCrashRecovery:
    def test_orphaned_tmp_swept(self, store):
        store.save_json("k", '{"x": 1}')
        orphan = os.path.join(store.root, "dead-writer.tmp")
        with open(orphan, "w") as handle:
            handle.write("partial garbage")
        assert store.recover() == ["dead-writer.tmp"]
        assert store.recovered == 1
        assert not os.path.exists(orphan)
        # the real entry is untouched
        assert store.load_json("k") == '{"x": 1}'

    def test_recover_on_missing_root(self, store):
        assert store.recover() == []

    def test_tmp_never_visible_as_entry(self, store):
        store.save_json("k", '{"x": 1}')
        with open(os.path.join(store.root, "crash.tmp"), "w") as handle:
            handle.write("junk")
        assert store.keys() == ["k"]


class TestRaces:
    def test_concurrent_writers_same_key(self, store):
        # deterministic pipelines write identical bytes; racing writers
        # must never produce a torn entry or an exception
        payload = json.dumps({"value": list(range(200))})
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
        assert store.load_json("shared") == payload
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
        store.save_json("k", '{"x": 1}')
        assert store.load_json("k") == '{"x": 1}'


class TestGc:
    def test_wrong_fingerprint_always_evicted(self, store):
        store.save_json("current", '{"x": 1}')
        stale_path = store.path_for("stale")
        framed = frame_entry('{"x": 2}')
        body, _sep, footer = framed.rstrip("\n").rpartition("\n")
        meta = json.loads(footer[len(FOOTER_PREFIX):])
        meta["fingerprint"] = "0" * 64
        with open(stale_path, "w") as handle:
            handle.write("%s\n%s%s\n" % (body, FOOTER_PREFIX,
                                         json.dumps(meta,
                                                    sort_keys=True)))
        assert store.gc() == ["stale"]
        assert store.keys() == ["current"]
        assert store.evicted == 1

    def test_lru_eviction_to_byte_budget(self, store):
        store.save_json("old", '{"x": 1}')
        time.sleep(0.02)
        store.save_json("new", '{"y": 2}')
        # a hit refreshes mtime, so touch "old" making "new" the LRU
        time.sleep(0.02)
        assert store.load_json("old") is not None
        budget = os.path.getsize(store.path_for("old"))
        evicted = store.gc(max_bytes=budget)
        assert evicted == ["new"]
        assert store.keys() == ["old"]

    def test_gc_quarantines_corrupt_entries(self, store):
        store.save_json("good", '{"x": 1}')
        store.save_json("bad", '{"y": 2}')
        _corrupt(store.path_for("bad"), lambda raw: raw[:10])
        assert store.gc() == []
        assert store.corrupt == 1 and store.quarantined == 1
        assert store.keys() == ["good"]

    def test_gc_without_budget_keeps_reachable_entries(self, store):
        for index in range(5):
            store.save_json("k%d" % index, '{"i": %d}' % index)
        assert store.gc() == []
        assert len(store.keys()) == 5
