#!/usr/bin/env python
"""Time one synthesized driver entry point on three execution tiers.

Loads the rtl8029 artifact from the pipeline cache (reverse engineering
runs once, then comes from disk), pastes the synthesized driver into the
winsim template three times -- once per ``exec_backend`` tier:
``"interp"`` (the tree-walking IR interpreter), ``"blocks"`` (compiled
blocks, ``repro.ir.compile``) and ``"compiled"`` (compiled blocks fused
into superblocks, ``repro.ir.superblock``) -- and drives the same send
workload through each.  Behaviour and perf counters are identical by
construction; only the wall-clock differs, which is the whole point of
the compiled tiers.

Usage:
    PYTHONPATH=src python examples/compiled_exec.py [packets]
"""

import sys
import time

from repro.drivers import device_class
from repro.eval.runner import get_cache
from repro.ir import exec_counters
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"


def drive(artifact, backend, packets):
    """Boot the synthesized driver and push ``packets`` frames through
    its send entry point; returns (seconds, observable summary)."""
    target = TARGET_OSES["winsim"](device_class(artifact.name), mac=MAC)
    template = DmaNicTemplate(artifact.synthesized, target,
                              original_image=artifact.image,
                              exec_backend=backend)
    started = time.perf_counter()
    template.initialize()
    workload = UdpWorkload(MAC, PEER, 256)
    for _ in range(packets):
        template.send(workload.next_frame().to_bytes())
    elapsed = time.perf_counter() - started
    env = template.runtime.env
    summary = {
        "frames on wire": len(target.medium.transmitted),
        "guest instructions": env.instrs_retired,
        "IR ops": env.ops_retired,
        "device accesses": env.io_ops,
    }
    return elapsed, summary


def main():
    packets = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    artifact = get_cache().run("rtl8029")
    print("driver: %s (coverage %.1f%%), %d packets through winsim"
          % (artifact.name, 100 * artifact.coverage_fraction, packets))

    results = {}
    for backend in ("interp", "blocks", "compiled"):
        seconds, summary = drive(artifact, backend, packets)
        results[backend] = (seconds, summary)
        print("\n%-8s  %.3fs" % (backend, seconds))
        for key, value in summary.items():
            print("  %-20s %s" % (key, value))

    summaries = [summary for _seconds, summary in results.values()]
    assert all(s == summaries[0] for s in summaries), "tiers diverged!"
    counters = exec_counters()
    print("\nidentical behaviour and counters; blocks %.1fx, compiled "
          "%.1fx faster than interp"
          % (results["interp"][0] / results["blocks"][0],
             results["interp"][0] / results["compiled"][0]))
    print("(%d blocks compiled this process, %d compiled-block executions)"
          % (counters["blocks_compiled"], counters["block_runs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
