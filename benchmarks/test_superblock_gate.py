"""Benchmark gate: the superblock tier beats per-block compiled dispatch.

Two experiments, landing under ``superblocks`` in
``BENCH_pipeline.json``:

* **original-binary matrix column** -- the rtl8029 workload catalog on
  the source-OS harness, compiled per-block vs compiled+superblocks
  (and the per-step interpreter for the overall-tier ratio).  Same
  observations; superblocks strictly faster than compiled-only and at
  least 1.5x over per-step decode;
* **synthesized-driver run** -- the rtl8139 artifact in the winsim
  template, compiled-only vs compiled+superblocks.  Same behaviour and
  perf counters; superblocks strictly faster.

Both timings warm the chains up before the measured runs: formation and
compile cost is a one-time cold-start cost, not smeared into the
steady-state gate.
"""

import json
import os
import time

from repro.drivers import device_class
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import SCENARIOS, run_scenario

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

#: Accumulated across the tests in this module; merged into the bench
#: report as each test completes, so partial runs still record.
_RECORD = {}


def _update_bench():
    path = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")
    report = {}
    if os.path.exists(path):
        with open(path) as handle:
            report = json.load(handle)
    report["superblocks"] = dict(_RECORD)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _best_of(runs, fn):
    """Best wall-clock of ``runs`` attempts (damps scheduler noise
    without hiding a real regression) plus the last result."""
    best, result = None, None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _race(rounds, contenders):
    """Best wall-clock per contender over interleaved rounds.

    The two sides of a thin-margin gate must sample the same load
    conditions: timing all of one side then all of the other lets a
    scheduler spike during either phase flip the verdict.  Alternating
    them round by round and keeping each side's minimum cancels drift.
    Returns ``({name: seconds}, {name: last result})``.
    """
    best = {name: None for name in contenders}
    results = {}
    for _ in range(rounds):
        for name, fn in contenders.items():
            started = time.perf_counter()
            results[name] = fn()
            elapsed = time.perf_counter() - started
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    return best, results


def _run_column(backend, superblocks=False):
    """The original rtl8029 binary through the whole workload catalog."""
    observations = []
    for scenario in SCENARIOS:
        dut = OriginalDut("rtl8029", exec_backend=backend,
                          exec_superblocks=superblocks)
        observations.append(run_scenario(dut, scenario).to_dict())
    return observations


def test_matrix_column_superblocks_faster(cache):
    # Warm-up: form chains and compile every source once, so
    # the timed runs measure steady-state dispatch only.
    _run_column("compiled", superblocks=True)
    _run_column("compiled", superblocks=False)
    stepped, obs_step = _best_of(2, lambda: _run_column("step"))
    timings, outputs = _race(5, {
        "off": lambda: _run_column("compiled", superblocks=False),
        "on": lambda: _run_column("compiled", superblocks=True),
    })
    compiled, fused = timings["off"], timings["on"]
    obs_off, obs_on = outputs["off"], outputs["on"]
    assert obs_off == obs_on, \
        "superblock tier changed observable behaviour"
    assert obs_step == obs_on, \
        "DBT tiers diverged from the per-step interpreter"
    _RECORD["matrix_column"] = {
        "driver": "rtl8029",
        "side": "original-binary",
        "scenarios": len(SCENARIOS),
        "step_seconds": round(stepped, 3),
        "compiled_seconds": round(compiled, 3),
        "superblock_seconds": round(fused, 3),
        "speedup_vs_step": round(stepped / fused, 2),
        "speedup_vs_compiled": round(compiled / fused, 2),
    }
    _update_bench()
    assert fused < compiled, \
        "compiled+superblocks (%.3fs) not faster than compiled-only " \
        "(%.3fs)" % (fused, compiled)
    assert stepped / fused >= 1.5, \
        "superblock tier (%.3fs) below 1.5x over per-step decode " \
        "(%.3fs)" % (fused, stepped)


def _run_synthesized(artifact, superblocks, packets=60):
    target = TARGET_OSES["winsim"](device_class(artifact.name), mac=MAC)
    template = DmaNicTemplate(artifact.synthesized, target,
                              original_image=artifact.image,
                              exec_backend="compiled",
                              exec_superblocks=superblocks)
    template.initialize()
    tx = UdpWorkload(MAC, PEER, 256)
    statuses = [template.send(tx.next_frame().to_bytes())
                for _ in range(packets)]
    rx = UdpWorkload(PEER, MAC, 128)
    delivered = []
    for _ in range(8):
        delivered.extend(template.inject_rx(rx.next_frame().to_bytes()))
    env = template.runtime.env
    return {
        "statuses": statuses,
        "wire": [f.hex() for f in target.medium.transmitted],
        "delivered": [f.hex() for f in delivered],
        "instrs_retired": env.instrs_retired,
        "ops_retired": env.ops_retired,
        "io_ops": env.io_ops,
        "irq_count": target.irq_count,
    }


def test_synthesized_rtl8139_run_superblocks_faster(cache):
    artifact = cache.run("rtl8139")
    _run_synthesized(artifact, True)
    _run_synthesized(artifact, False)
    timings, outputs = _race(7, {
        "off": lambda: _run_synthesized(artifact, False),
        "on": lambda: _run_synthesized(artifact, True),
    })
    compiled, fused = timings["off"], timings["on"]
    out_off, out_on = outputs["off"], outputs["on"]
    assert out_off == out_on, \
        "superblock tier changed synthesized-driver behaviour or counters"
    _RECORD["synthesized_run"] = {
        "driver": "rtl8139",
        "target_os": "winsim",
        "packets": 60,
        "compiled_seconds": round(compiled, 3),
        "superblock_seconds": round(fused, 3),
        "speedup_vs_compiled": round(compiled / fused, 2),
    }
    _update_bench()
    assert fused < compiled, \
        "compiled+superblocks (%.3fs) not faster than compiled-only " \
        "(%.3fs)" % (fused, compiled)

