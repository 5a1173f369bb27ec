"""Artifact round-tripping, determinism and orchestration tests.

The contracts under test (see DESIGN.md "Artifact-based orchestration"):

* serialize -> deserialize is lossless for every field downstream
  consumers use, and rendered experiment outputs (Table 4, Figures 8/9)
  are identical between the live-object and deserialized paths;
* fresh in-process runs and on-disk cache loads of the same driver
  produce byte-identical canonical JSON;
* artifacts, fuzz campaigns and fabric reports keep their wall-clock
  values under one ``volatile`` key, which the canonical form drops and
  an artifact store round trip keeps;
* the on-disk store is content-addressed (config changes miss, corrupt
  entries miss, same inputs hit) and a warm cache makes a session's
  four-driver warm-up loads, not runs.
"""

import json
import os

import pytest

from repro.drivers import DRIVERS, device_class
from repro.errors import ArtifactError
from repro.eval.runner import get_cache
from repro.net import EthernetFrame, EtherType
from repro.pipeline import (ArtifactStore, PipelineOrchestrator,
                            artifact_key, build_config, canonical_json,
                            execute_run, from_json, to_json)
from repro.pipeline.store import unframe_entry
from repro.targetos import WinSim
from repro.templates import NicTemplate

ALL = sorted(DRIVERS)
MAC = b"\x52\x54\x00\xAA\xBB\xCC"


@pytest.fixture(scope="module")
def artifacts():
    """The session's artifacts for the whole corpus."""
    return {artifact.name: artifact for artifact in
            get_cache().all_drivers()}


class _StubCache:
    """A cache front returning pre-built artifacts (so the eval renderers
    can be pointed at deserialized artifacts)."""

    def __init__(self, artifacts):
        self._artifacts = artifacts

    def run(self, name, strategy="coverage", script="default"):
        return self._artifacts[name]


def _round_tripped(artifacts):
    return {name: from_json(to_json(artifact))
            for name, artifact in artifacts.items()}


# ==========================================================================


class TestRoundTrip:
    def test_json_round_trip_is_stable(self, artifacts):
        for name, artifact in artifacts.items():
            text = to_json(artifact)
            again = to_json(from_json(text))
            assert again == text, name

    def test_canonical_json_survives_round_trip(self, artifacts):
        for name, artifact in artifacts.items():
            assert canonical_json(from_json(to_json(artifact))) \
                == canonical_json(artifact), name

    def test_consumer_fields_survive(self, artifacts):
        for name, artifact in artifacts.items():
            loaded = from_json(to_json(artifact))
            assert loaded.source == "disk-cache"
            assert loaded.driver == name
            assert loaded.stats == artifact.stats
            assert loaded.entry_points == artifact.entry_points
            assert loaded.import_names == artifact.import_names
            assert loaded.coverage_fraction == artifact.coverage_fraction
            assert loaded.coverage.timeline == artifact.coverage.timeline
            assert loaded.code.base == artifact.code.base
            assert loaded.code.data == artifact.code.data
            assert loaded.synthesized.c_source \
                == artifact.synthesized.c_source
            assert set(loaded.synthesized.block_map) \
                == set(artifact.synthesized.block_map)
            assert loaded.report.function_count \
                == artifact.report.function_count

    def test_trace_decodes_lazily_and_completely(self, artifacts):
        artifact = artifacts["rtl8029"]
        loaded = from_json(to_json(artifact))
        assert loaded._trace is None     # not decoded yet
        live = {(s.entry_name, p.path_id, len(p.records))
                for s in artifact.trace.segments for p in s.paths}
        decoded = {(s.entry_name, p.path_id, len(p.records))
                   for s in loaded.trace.segments for p in s.paths}
        assert decoded == live
        assert loaded.trace.executed_block_pcs() \
            == artifact.trace.executed_block_pcs()

    def test_rendered_outputs_identical(self, artifacts):
        """The acceptance check: re-render the table/figure outputs from
        deserialized artifacts and compare against the live path."""
        from repro.eval.figures import (fig8_compute, fig9_compute,
                                        render_fig8, render_fig9)
        from repro.eval.tables import table4_compute, table4_render

        live = _StubCache(artifacts)
        loaded = _StubCache(_round_tripped(artifacts))
        assert table4_render(table4_compute(loaded)) \
            == table4_render(table4_compute(live))
        assert render_fig8(fig8_compute(loaded)) \
            == render_fig8(fig8_compute(live))
        assert render_fig9(fig9_compute(loaded)) \
            == render_fig9(fig9_compute(live))

    def test_deserialized_module_is_functional(self, artifacts):
        """A deserialized synthesized driver must actually run (the
        executable block map, entry points and import table survived)."""
        loaded = from_json(to_json(artifacts["rtl8029"]))
        target = WinSim(device_class("rtl8029"), mac=MAC)
        template = NicTemplate(loaded.synthesized, target,
                               original_image=loaded.image)
        template.initialize()
        frame = EthernetFrame(dst=b"\xff" * 6, src=b"\x02" * 6,
                              ethertype=EtherType.IPV4,
                              payload=b"x" * 64).to_bytes()
        assert template.send(frame) == 0
        assert target.medium.transmitted == [frame]


class TestDeterminism:
    def test_recompute_matches_session_artifact(self, artifacts):
        """A fresh in-process run is canonically byte-identical to the
        session's artifact (which may have come from the disk cache)."""
        fresh = execute_run("rtl8029")
        assert canonical_json(fresh) == canonical_json(
            artifacts["rtl8029"])


class TestVolatileSection:
    """Every byte-compared document keeps its non-deterministic values
    under one top-level ``volatile`` key, which the canonical form drops
    and a store round trip keeps."""

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.fuzz import run_fuzz

        return run_fuzz(orchestrator=get_cache(), drivers=("rtl8029",),
                        os_names=("winsim",), programs_per_round=1,
                        max_rounds=1)

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.net.fabric import build_workload, run_fleet

        plan = build_workload("saturation", 4, 5)
        return plan, {mode: run_fleet(plan, orchestrator=get_cache(),
                                      mode=mode)
                      for mode in ("batched", "lockstep")}

    def test_canonical_forms_have_no_volatile_key(self, artifacts,
                                                  campaign, fleet):
        from repro.fuzz import canonical_fuzz_json, fuzz_to_json
        from repro.net.fabric import canonical_fabric_json, fabric_to_json

        _plan, reports = fleet
        pairs = [(to_json(artifacts["rtl8029"]),
                  canonical_json(artifacts["rtl8029"])),
                 (fuzz_to_json(campaign), canonical_fuzz_json(campaign)),
                 (fabric_to_json(reports["batched"]),
                  canonical_fabric_json(reports["batched"]))]
        for full, canonical in pairs:
            assert '"volatile"' in full
            assert '"volatile"' not in canonical

    def test_artifact_store_round_trip_keeps_timings(self, tmp_path,
                                                     artifacts):
        from repro.eval.figures import fig8_compute
        from repro.eval.tables import table4_compute

        store = ArtifactStore(str(tmp_path))
        loaded = {}
        for name, artifact in artifacts.items():
            key = artifact_key(artifact.image, build_config(name))
            store.save(key, artifact)
            loaded[name] = store.load(key)
        live, cached = _StubCache(artifacts), _StubCache(loaded)
        seconds = [row["wall_seconds"] for row in table4_compute(cached)]
        assert seconds == [row["wall_seconds"]
                           for row in table4_compute(live)]
        assert all(value > 0 for value in seconds)
        timelines = fig8_compute(cached)
        assert timelines == fig8_compute(live)
        assert any(seconds > 0 for samples in timelines.values()
                   for _blocks, seconds, _fraction in samples)

    def test_documents_differing_only_when_volatile_agree(self, artifacts,
                                                          campaign, fleet):
        from repro.fuzz import (canonical_fuzz_json, fuzz_to_dict,
                                fuzz_to_json)
        from repro.net.fabric import canonical_fabric_json
        from repro.pipeline.artifact import canonical_dumps, stable_dumps

        artifact = artifacts["rtl8029"]
        data = json.loads(to_json(artifact))
        data["volatile"]["wall_seconds"] += 1.0
        data["volatile"]["timeline_seconds"] = [
            seconds + 1.0 for seconds in data["volatile"]["timeline_seconds"]]
        slower = from_json(json.dumps(data))
        assert to_json(slower) != to_json(artifact)
        assert canonical_json(slower) == canonical_json(artifact)

        data = fuzz_to_dict(campaign)
        data["volatile"]["wall_seconds"] += 1.0
        assert canonical_dumps(data) != fuzz_to_json(campaign)
        assert stable_dumps(data) == canonical_fuzz_json(campaign)

        _plan, reports = fleet
        assert reports["batched"]["volatile"] \
            != reports["lockstep"]["volatile"]
        assert canonical_fabric_json(reports["batched"]) \
            == canonical_fabric_json(reports["lockstep"])


class TestStore:
    def test_cache_round_trip_is_byte_identical(self, tmp_path,
                                                artifacts):
        store = ArtifactStore(str(tmp_path))
        artifact = artifacts["smc91c111"]
        key = artifact_key(artifact.image, build_config("smc91c111"))
        store.save(key, artifact)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.source == "disk-cache"
        assert canonical_json(loaded) == canonical_json(artifact)
        assert store.hits == 1

    def test_corrupt_entry_is_quarantined(self, tmp_path, artifacts):
        # An entry that verifies but does not decode is corruption, not a
        # miss: counted separately, quarantined as evidence, never served.
        store = ArtifactStore(str(tmp_path))
        key = "0" * 64
        store.save_json(key, "{not json")
        assert store.load(key) is None
        assert store.misses == 0
        assert store.corrupt == 1 and store.quarantined == 1
        assert os.path.exists(os.path.join(store.quarantine_dir,
                                           "%s.json" % key))
        # the entry is gone from the store proper: the next load misses
        assert store.load(key) is None
        assert store.misses == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path))
        artifact = artifacts["smc91c111"]
        data = json.loads(to_json(artifact))
        data["schema"] = 999_999
        key = "1" * 64
        store.save_json(key, json.dumps(data))
        assert store.load(key) is None

    def test_key_is_content_addressed(self, artifacts):
        image = artifacts["rtl8029"].image
        base = artifact_key(image, build_config("rtl8029"))
        assert base == artifact_key(image, build_config("rtl8029"))
        assert base != artifact_key(image,
                                    build_config("rtl8029",
                                                 strategy="dfs"))
        assert base != artifact_key(image,
                                    build_config("rtl8029",
                                                 script="quick"))
        other = artifacts["pcnet"].image
        assert base != artifact_key(other, build_config("pcnet"))

    def test_trace_bitflip_quarantined_at_load(self, tmp_path, artifacts):
        # Load verifies the trace section though it does not parse it: a
        # flipped trace byte is corruption found at load, and the
        # recompute is byte-identical.
        store = ArtifactStore(str(tmp_path))
        orchestrator = PipelineOrchestrator(store=store)
        orchestrator._store_artifact(("rtl8029", "coverage", "default"),
                                     artifacts["rtl8029"])
        [key] = store.keys()
        path = store.path_for(key)
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        _head, meta = unframe_entry(bytes(raw))
        raw[meta["trace_bytes"] // 2] ^= 0x04
        with open(path, "wb") as handle:
            handle.write(raw)
        assert store.load(key) is None
        assert store.corrupt == 1 and store.quarantined == 1
        assert os.path.exists(os.path.join(store.quarantine_dir,
                                           "%s.json" % key))
        recomputed = orchestrator.run("rtl8029")
        assert recomputed.source == "computed"
        assert canonical_json(recomputed) \
            == canonical_json(artifacts["rtl8029"])

    def test_trace_changed_after_load_is_loud(self, tmp_path, artifacts):
        # An entry rewritten after load: walking the trace re-reads the
        # section, refuses it by digest and quarantines the entry.
        store = ArtifactStore(str(tmp_path))
        artifact = artifacts["rtl8029"]
        key = artifact_key(artifact.image, build_config("rtl8029"))
        store.save(key, artifact)
        loaded = store.load(key)
        path = store.path_for(key)
        with open(path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(ArtifactError, match=key):
            loaded.trace
        assert store.quarantined == 1
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(store.quarantine_dir,
                                           "%s.json" % key))
        # still loud on the next walk, never a wrong trace
        with pytest.raises(ArtifactError, match=key):
            loaded.trace

    def test_trace_deleted_after_load_is_loud(self, tmp_path, artifacts):
        store = ArtifactStore(str(tmp_path))
        artifact = artifacts["rtl8029"]
        key = artifact_key(artifact.image, build_config("rtl8029"))
        store.save(key, artifact)
        loaded = store.load(key)
        os.unlink(store.path_for(key))
        with pytest.raises(ArtifactError, match=key):
            loaded.trace

    def test_warm_matrix_column_decodes_no_trace(self, tmp_path, artifacts,
                                                 monkeypatch):
        # The trace is the synthesizer's input: a warm-up from the store
        # and a validation column never decode one, and a loaded
        # artifact's trace, once walked, is the computed one.
        from repro.pipeline import artifact as artifact_module
        from repro.validate import SCENARIOS, compute_column

        store = ArtifactStore(str(tmp_path))
        first = PipelineOrchestrator(store=store)
        for name, artifact in artifacts.items():
            first._store_artifact((name, "coverage", "default"), artifact)
        decoded = []
        decode = artifact_module._decode_trace

        def counting(*args):
            decoded.append(args)
            return decode(*args)

        monkeypatch.setattr(artifact_module, "_decode_trace", counting)
        warmed = PipelineOrchestrator(store=store).warm()
        assert all(a.source == "disk-cache" for a in warmed.values())
        compute_column(warmed["rtl8029"], ("winsim", "kitos"),
                       [s.name for s in SCENARIOS])
        assert decoded == []
        for name in ALL:
            assert canonical_json(warmed[name]) \
                == canonical_json(artifacts[name]), name
        assert len(decoded) == len(ALL)

    def test_warm_session_loads_not_runs(self, tmp_path, artifacts):
        """Second-session behaviour: with a populated store, warm-up is
        cache loads only."""
        store = ArtifactStore(str(tmp_path))
        first = PipelineOrchestrator(store=store)
        for name, artifact in artifacts.items():
            first._store_artifact((name, "coverage", "default"), artifact)
        second = PipelineOrchestrator(store=store)
        warmed = second.warm()
        assert second.last_warm_mode == "cached"
        assert all(a.source == "disk-cache" for a in warmed.values())
        for name in ALL:
            assert canonical_json(warmed[name]) \
                == canonical_json(artifacts[name]), name


class TestQuickScript:
    def test_quick_run_is_a_supported_scenario(self, tmp_path):
        """The reduced exerciser script is wired through the orchestrator
        (smoke runs: driver_entry, initialize, send, halt)."""
        orchestrator = PipelineOrchestrator(store=ArtifactStore(
            str(tmp_path)))
        artifact = orchestrator.run("rtl8029", script="quick")
        assert artifact.script == "quick"
        assert artifact.config["script"] == "quick"
        assert {"initialize", "send", "isr"} <= set(artifact.entry_points)
        exercised = {s.entry_name for s in artifact.trace.segments}
        assert "query_information" not in exercised
        # Quick artifacts cache independently of full ones.
        assert orchestrator.store.keys()
        # The synthesized module still sends.
        target = WinSim(device_class("rtl8029"), mac=MAC)
        template = NicTemplate(artifact.synthesized, target,
                               original_image=artifact.image)
        template.initialize()
        frame = EthernetFrame(dst=b"\xff" * 6, src=b"\x02" * 6,
                              ethertype=EtherType.IPV4,
                              payload=b"y" * 60).to_bytes()
        assert template.send(frame) == 0

    def test_unknown_script_rejected(self):
        from repro.revnic.exerciser import make_script

        with pytest.raises(ValueError):
            make_script("nope")


class TestSkipFunctions:
    def test_skip_functions_honored(self):
        """The paper's example: OS functions like log writes can be
        configured away.  rtl8029's error path calls
        NdisWriteErrorLogEntry once under the quick script."""
        from repro.drivers import build_driver
        from repro.revnic import RevNic, RevNicConfig

        config = RevNicConfig(
            driver_name="rtl8029", pci=device_class("rtl8029").PCI,
            script="quick",
            skip_functions={"NdisWriteErrorLogEntry": 0})
        engine = RevNic(build_driver("rtl8029"), config)
        result = engine.run()
        assert result.stats["os_calls_skipped"] >= 1
        # Skipping a log write must not cost exploration: the run still
        # discovers the full entry-point set.
        assert {"initialize", "send", "halt"} <= set(result.entry_points)

    def test_skip_unknown_function_requires_explicit_arity(self):
        """Imports without a bridge handler can only be skipped with the
        (retval, nargs) form -- a bare value would leave the bridge
        guessing how many stack arguments to pop."""
        from repro.errors import SymexError
        from repro.revnic.osbridge import SymOsBridge

        bridge = SymOsBridge(None, None,
                             import_names={0: "MysteryApi"},
                             skip_functions={"MysteryApi": 7})
        with pytest.raises(SymexError):
            bridge.handle(None, 0)


class TestHardwarePolicyCounters:
    def test_counters_bounded_by_default(self):
        from repro.symex.executor import HardwarePolicy

        policy = HardwarePolicy()
        for _ in range(5):
            policy.device_read(None, "port", 0x300, 1)
        policy.device_write(None, "mmio", 0xF0000000, 4, 1)
        assert policy.read_counts == {"port": 5}
        assert policy.write_counts == {"mmio": 1}
        assert policy.reads_total == 5 and policy.writes_total == 1
        # No unbounded logs unless asked for.
        assert policy.reads is None and policy.writes is None

    def test_retention_is_opt_in(self):
        from repro.symex.executor import HardwarePolicy

        policy = HardwarePolicy(retain_log=True)
        policy.device_read(None, "dma", 0x100000, 4)
        assert policy.reads == [("dma", 0x100000, 4)]

    def test_counters_exported_in_stats(self, artifacts):
        for name, artifact in artifacts.items():
            assert artifact.stats["hw_reads"] > 0, name
            assert "hw_read_counts" in artifact.stats
            assert sum(artifact.stats["hw_read_counts"].values()) \
                == artifact.stats["hw_reads"]


class TestSectionDigests:
    """``tools/artifact_digests.py --check`` names the driver and the
    section that moved."""

    def _tool(self):
        import importlib.util

        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "artifact_digests.py")
        spec = importlib.util.spec_from_file_location("artifact_digests",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_differences_name_driver_and_section(self):
        tool = self._tool()
        before = {"rtl8139": {"artifact": "a1", "c_source": "c1",
                              "coverage": "v1"}}
        counters_moved = {"rtl8139": {"artifact": "a2", "c_source": "c1",
                                      "coverage": "v1"}}
        assert tool.differences(before, before) == []
        assert tool.differences(before, counters_moved) == [
            ("rtl8139", "artifact", "a1", "a2")]
        missing = tool.differences(before, {})
        assert [(d, s) for d, s, _, _ in missing] == [
            ("rtl8139", "artifact"), ("rtl8139", "c_source"),
            ("rtl8139", "coverage")]

    def test_differences_name_warm_section(self):
        tool = self._tool()
        before = {"warm": {"fabric": "f1", "matrix": "m1"}}
        matrix_moved = {"warm": {"fabric": "f1", "matrix": "m2"}}
        assert tool.differences(before, before) == []
        assert tool.differences(before, matrix_moved) == [
            ("warm", "matrix", "m1", "m2")]
        assert [(d, s) for d, s, _, _ in tool.differences(before, {})] == [
            ("warm", "fabric"), ("warm", "matrix")]

    def test_sections_limit_the_comparison(self):
        tool = self._tool()
        before = {"rtl8139": {"artifact": "a1", "c_source": "c1",
                              "coverage": "v1"}}
        counters_moved = {"rtl8139": {"artifact": "a2", "c_source": "c1",
                                      "coverage": "v1"}}
        behaviour_moved = {"rtl8139": {"artifact": "a2", "c_source": "c2",
                                       "coverage": "v1"}}
        sections = ["c_source", "coverage"]
        assert tool.differences(before, counters_moved, sections) == []
        assert tool.differences(before, behaviour_moved, sections) == [
            ("rtl8139", "c_source", "c1", "c2")]
        assert [(d, s) for d, s, _, _ in
                tool.differences(before, {}, sections)] == [
            ("rtl8139", "c_source"), ("rtl8139", "coverage")]
