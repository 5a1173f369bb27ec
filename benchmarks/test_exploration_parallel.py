"""Benchmark gate: sharded exploration pays for itself on multi-core.

One cold RevNIC engine run (no artifact store involved -- both sides
compute) on the heaviest driver, serial vs 2-worker sharded at the same
split depth.  The gate lands under ``exploration_parallel`` in
``BENCH_pipeline.json``:

* canonical artifact bytes must be identical between the two runs
  (worker count is runtime-only; tier-1 asserts this per driver, the
  gate re-checks it on the exact runs it times);
* on hosts with 2+ cores the sharded run must be at least
  ``MIN_SPEEDUP`` faster than serial;
* on single-core runners the speedup assertion is *skipped* -- never
  simulated -- and the report records the skip with the core count, so
  a missing gate is distinguishable from a green one.
"""

import os
import time

import pytest

from repro.drivers import build_driver, device_class
from repro.pipeline.artifact import build_artifact, canonical_json
from repro.revnic import RevNic, RevNicConfig
from repro.synth import synthesize

from conftest import update_bench


#: rtl8139 has the largest eval/solver volume in the corpus -- the run
#: long enough for fan-out to amortize worker spawn.
GATE_DRIVER = "rtl8139"
SPLIT_DEPTH = 3
WORKERS = 2
MIN_SPEEDUP = 1.5

_RECORD = {}


def _cold_run(workers):
    image = build_driver(GATE_DRIVER)
    config = RevNicConfig(driver_name=GATE_DRIVER,
                          pci=device_class(GATE_DRIVER).PCI,
                          explore_split_depth=SPLIT_DEPTH)
    engine = RevNic(image, config, explore_workers=workers)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    artifact = build_artifact(config, result, synthesize(result))
    return elapsed, canonical_json(artifact), result.stats


def test_exploration_parallel_gate(cache):
    cores = os.cpu_count() or 1
    _RECORD["scaling"] = {
        "driver": GATE_DRIVER,
        "split_depth": SPLIT_DEPTH,
        "workers": WORKERS,
        "min_speedup": MIN_SPEEDUP,
        "cores": cores,
    }
    if cores < 2:
        _RECORD["scaling"]["skipped"] = \
            "single-core runner (os.cpu_count()=%d): sharded and " \
            "serial would time the same CPU" % cores
        update_bench("exploration_parallel", _RECORD)
        pytest.skip("exploration scaling gate needs 2+ cores, have %d"
                    % cores)

    serial_seconds, serial_bytes, serial_stats = _cold_run(workers=0)
    sharded_seconds, sharded_bytes, stats = _cold_run(workers=WORKERS)
    front = stats["frontier"]
    speedup = serial_seconds / sharded_seconds
    _RECORD["scaling"].update({
        "serial_seconds": round(serial_seconds, 3),
        "sharded_seconds": round(sharded_seconds, 3),
        "speedup": round(speedup, 2),
        "bytes_identical": sharded_bytes == serial_bytes,
        "subtrees": front["subtrees"],
        "max_depth": front["max_depth"],
        "states_per_worker": front["states_per_worker"],
        "steals": front["steals"],
        "fallbacks": front["fallbacks"],
        "merge_wall_seconds": front["merge_wall_seconds"],
        "serial_blocks": serial_stats["blocks_executed"],
        "sharded_blocks": stats["blocks_executed"],
    })
    update_bench("exploration_parallel", _RECORD)
    assert sharded_bytes == serial_bytes, \
        "sharded exploration changed artifact bytes"
    assert front["fallbacks"] == 0, \
        "worker pool degraded to in-process fallback; not a scaling run"
    assert speedup >= MIN_SPEEDUP, \
        "sharded exploration (%.3fs) under %.1fx vs serial (%.3fs)" \
        % (sharded_seconds, MIN_SPEEDUP, serial_seconds)
