#!/usr/bin/env python
"""Run a fleet-scale fabric soak and report it.

N synthesized-driver endpoints (driver x target-OS x backend mix drawn
from the validation matrix) share one learning Ethernet switch and
exchange a seeded, replayable traffic workload under the batched
event-driven scheduler.  The run emits the canonical fabric report --
same seed + topology means byte-identical report bytes, so the printed
digest is a replay check.

Usage:
    PYTHONPATH=src python examples/fabric_soak.py [options]

Options:
    --endpoints N     fleet size                     (default 16)
    --seed N          workload seed                  (default 0xFAB1C)
    --workload NAME   all_pairs | broadcast_storm | incast | churn |
                      saturation                     (default saturation)
    --backend NAME    execution backend for every endpoint
                      (default compiled)
    --mode NAME       batched | lockstep             (default batched)
    --queue-depth N   per-port egress queue depth    (default 64)
    --out PATH        write the full fabric report JSON here

Exit status is 1 when the fabric switched zero frames -- a vacuous soak
is a failure, and CI byte-diffs two cold runs of this script's canonical
report to gate fleet determinism.
"""

import argparse
import hashlib
import sys

from repro.net.fabric import (build_workload, canonical_fabric_json,
                              fabric_to_json, run_fleet)
from repro.pipeline import PipelineOrchestrator


def main(argv=None):
    parser = argparse.ArgumentParser(description="fleet-scale fabric soak")
    parser.add_argument("--endpoints", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0xFAB1C)
    parser.add_argument("--workload", default="saturation")
    parser.add_argument("--backend", default="compiled")
    parser.add_argument("--mode", default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    plan = build_workload(args.workload, args.endpoints, args.seed)
    report = run_fleet(plan, orchestrator=PipelineOrchestrator(),
                       backends=(args.backend,), mode=args.mode,
                       queue_depth=args.queue_depth)

    switch = report["switch"]
    totals = report["totals"]
    volatile = report["volatile"]
    print("fabric soak: %d endpoints, workload %s, seed %#x (%s mode)"
          % (args.endpoints, args.workload, args.seed, volatile["mode"]))
    print("switch: %d frames switched, %d flooded, %d unknown floods, "
          "%d filtered, %d queue drops, %d aged out"
          % (switch["frames_switched"], switch["flooded"],
             switch["unknown_floods"], switch["filtered"],
             switch["queue_drops"], switch["aged_out"]))
    print("fleet: %d steps, %d tx, %d rx frames, %d irqs, "
          "%d step errors over %d ticks"
          % (totals["steps"], totals["tx_frames"], totals["rx_frames"],
             totals["irq_count"], totals["step_errors"], report["ticks"]))
    print("throughput: %.1f packets/sec (%.3fs run loop)"
          % (volatile["packets_per_second"], volatile["wall_seconds"]))
    canonical = canonical_fabric_json(report)
    print("canonical report digest: %s"
          % hashlib.sha256(canonical.encode()).hexdigest()[:16])

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(fabric_to_json(report))
            handle.write("\n")
        print("fabric report written to %s" % args.out)

    if switch["frames_switched"] == 0:
        print("\nVACUOUS SOAK: the fabric switched zero frames")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
