"""Tests for sharded in-run symbolic exploration (repro.symex.frontier).

The load-bearing property is byte identity: partitioned exploration must
produce a :class:`RunArtifact` whose canonical JSON is identical whether
the sub-trees run serially in-process or sharded across spawned workers.
The engine's compiler/synthesizer/validation stack downstream of the
artifact then needs no re-verification for the parallel mode.
"""

import itertools
import json

import pytest

from repro.drivers import DRIVERS, build_driver, device_class
from repro.pipeline.artifact import _Decoder, _Encoder, build_artifact, \
    canonical_json
from repro.pipeline.store import artifact_key
from repro.revnic import RevNic, RevNicConfig
from repro.revnic.trace import ImportRecord
from repro.symex import expr as E
from repro.symex import frontier
from repro.symex.memory import SymMemory
from repro.symex.state import SymState
from repro.synth import synthesize


# -- env knobs -------------------------------------------------------------

def test_env_knob_parsing(monkeypatch):
    monkeypatch.delenv(frontier.WORKERS_ENV, raising=False)
    monkeypatch.delenv(frontier.SPLIT_DEPTH_ENV, raising=False)
    assert frontier.env_workers() == 0
    assert frontier.env_split_depth() == 0
    monkeypatch.setenv(frontier.WORKERS_ENV, "3")
    monkeypatch.setenv(frontier.SPLIT_DEPTH_ENV, "5")
    assert frontier.env_workers() == 3
    assert frontier.env_split_depth() == 5
    # Garbage and negatives degrade to the serial default, never raise.
    monkeypatch.setenv(frontier.WORKERS_ENV, "many")
    monkeypatch.setenv(frontier.SPLIT_DEPTH_ENV, "-2")
    assert frontier.env_workers() == 0
    assert frontier.env_split_depth() == 0


def test_engine_reads_worker_env(monkeypatch):
    monkeypatch.setenv(frontier.WORKERS_ENV, "2")
    image = build_driver("rtl8029")
    config = RevNicConfig(driver_name="rtl8029",
                          pci=device_class("rtl8029").PCI, script="quick")
    assert RevNic(image, config).explore_workers == 2
    assert RevNic(image, config, explore_workers=0).explore_workers == 0


def test_split_depth_changes_cache_key():
    """The split depth changes exploration semantics, so partitioned and
    legacy artifacts must live under different store keys; the worker
    count must not (it only changes wall time)."""
    from repro.pipeline.orchestrator import build_config

    image = build_driver("rtl8029")
    key0 = artifact_key(image, build_config("rtl8029", "coverage",
                                            "quick", 0))
    key3 = artifact_key(image, build_config("rtl8029", "coverage",
                                            "quick", 3))
    assert key0 != key3


# -- frontier-state codec --------------------------------------------------

def _crafted_state():
    sym = E.bv_sym("s1_mmio_16_0")
    memory = SymMemory(lambda address: 0)
    memory.write_byte(0x2000, 0xAB)
    memory.write_byte(0x2001, sym)
    state = SymState(pc=0x1040, regs=[sym if i == 2 else i * 3
                                      for i in range(16)],
                     memory=memory, id_source=itertools.count(41))
    state.add_constraint(E.bv_cmp("ult", sym, 16),
                         model={"s1_mmio_16_0": 5})
    state.depth = 4
    state.model_hint = {"s1_mmio_16_0": 5}
    state.block_counts = {0x1000: 2, 0x1040: 1}
    state.loop_suspects = {0x1000}
    state.os.heap_next += 0x80
    state.os.dma_regions.append((0x30000, 0x1000))
    state.os.timers[0x5000] = 0x1100
    state.os.indicated = 2
    state.trace_records = [ImportRecord(seq=9, name="NdisMSleep",
                                        args=(100, sym), caller_pc=0x1038)]
    return state


def _wire(state):
    enc = _Encoder()
    payload = frontier.encode_state(state, enc)
    return json.dumps({"payload": payload, "exprs": enc.exprs,
                       "blocks": enc.blocks}, sort_keys=True)


def test_state_codec_round_trip():
    state = _crafted_state()
    wire = _wire(state)
    message = json.loads(wire)
    dec = _Decoder(message["exprs"], message["blocks"])
    restored = frontier.decode_state(message["payload"], dec,
                                     lambda address: 0)
    assert restored.id == state.id
    assert restored.pc == state.pc
    assert restored.depth == state.depth
    assert restored.status == state.status
    assert restored.model_hint == state.model_hint
    assert restored.block_counts == state.block_counts
    assert restored.loop_suspects == state.loop_suspects
    assert restored.os.heap_next == state.os.heap_next
    assert restored.os.dma_regions == state.os.dma_regions
    assert restored.os.timers == state.os.timers
    assert len(restored.path_trace()) == 1
    # The codec is a fixed point: re-encoding the decoded state yields
    # the exact same wire bytes.  Sub-tree outcomes cross the process
    # boundary through this codec, so the merge depends on it.
    assert _wire(restored) == wire


# -- serial vs sharded byte identity ---------------------------------------

def _canonical_run(name, workers, split_depth=3):
    image = build_driver(name)
    config = RevNicConfig(driver_name=name, pci=device_class(name).PCI,
                          script="quick", explore_split_depth=split_depth)
    engine = RevNic(image, config, explore_workers=workers)
    result = engine.run()
    artifact = build_artifact(config, result, synthesize(result))
    return canonical_json(artifact), result.stats


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_sharded_matches_serial_bytes(name):
    """The acceptance gate: for every driver, a 2-worker sharded run's
    canonical artifact is byte-identical to the serial partitioned run
    (worker count is runtime-only; it must never leak into bytes)."""
    serial, serial_stats = _canonical_run(name, workers=0)
    sharded, stats = _canonical_run(name, workers=2)
    assert sharded == serial
    # The partition actually fanned out and both runs agree on its shape.
    assert stats["frontier"]["subtrees"] > 0
    assert stats["frontier"]["subtrees"] == \
        serial_stats["frontier"]["subtrees"]
    assert stats["frontier"]["split_depth"] == 3
    # A broken pool falls back to in-process sub-trees with the same
    # bytes; only these stats tell a real sharded run apart.
    assert stats["frontier"]["mode"] == "sharded"
    assert stats["frontier"]["fallbacks"] == 0
