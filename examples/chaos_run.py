#!/usr/bin/env python
"""Run a seeded chaos campaign and report how the pipeline survived.

Each schedule derives a deterministic fault plan from its seed -- store
corruption (truncation, bit flips, orphaned temp files, crashed
publishes) and induced run-layer failures -- and runs the driver
pipeline under it.  The campaign asserts the robustness
invariant: every schedule must end **byte-identical** to the fault-free
baseline or **fail loudly** with a classified, replayable fault record.
A silent wrong answer exits non-zero with the offending plan's JSON, so
the exact schedule can be replayed from the report alone.

Usage:
    PYTHONPATH=src python examples/chaos_run.py [options]

Options:
    --base-seed N     first schedule seed               (default 0xFA0175)
    --schedules N     number of fault schedules         (default 3)
    --drivers a,b     driver subset                     (default: all)
    --script NAME     exercise script                   (default: quick)
    --fuzz-seed N     also check the fuzz-composition invariant with
                      this fault-plan seed              (default: off)
    --out PATH        write the full campaign JSON here

Exit status is 1 when the invariant breaks -- CI runs this with fixed
seeds and uploads the report as an artifact on failure.
"""

import argparse
import json
import sys

from repro.faults.campaign import ChaosCampaign, ChaosInvariantError


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="seeded chaos campaign against the pipeline")
    parser.add_argument("--base-seed", type=int, default=0xFA0175)
    parser.add_argument("--schedules", type=int, default=3)
    parser.add_argument("--drivers", default="")
    parser.add_argument("--script", default="quick")
    parser.add_argument("--fuzz-seed", type=int, default=None)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    drivers = tuple(args.drivers.split(",")) if args.drivers else None
    campaign = ChaosCampaign(drivers=drivers, script=args.script)
    status = 0
    payload = {}
    try:
        report = campaign.run(base_seed=args.base_seed,
                              schedules=args.schedules)
        payload = report.to_dict()
        summary = report.summary()
        print("chaos campaign: %(schedules)d schedules -- "
              "%(identical)d byte-identical, %(faulted)d loud classified "
              "failures" % summary)
        print("absorbed: %(quarantined)d quarantined entries, "
              "%(recovered_tmp)d recovered temp files" % summary)
        print("skipped: %(skipped_run_faults)d run faults whose target "
              "loaded from the store and never computed" % summary)
        for outcome in report.outcomes:
            line = "  seed %d: %s" % (outcome.seed, outcome.verdict)
            if outcome.verdict == "faulted":
                line += " (%s)" % outcome.error
            print(line)
        if args.fuzz_seed is not None:
            fuzz = campaign.fuzz_invariant(args.fuzz_seed)
            payload["fuzz_invariant"] = fuzz
            print("fuzz composition: byte-identical under plan seed %d "
                  "(%d store faults applied, %d entries quarantined)"
                  % (args.fuzz_seed, len(fuzz["store_faults"]),
                     fuzz["quarantined"]))
        print("\ninvariant holds: loud-or-identical on every schedule")
    except ChaosInvariantError as exc:
        print("\nINVARIANT VIOLATION: %s" % exc, file=sys.stderr)
        payload = {"violation": str(exc)}
        status = 1
    finally:
        campaign.cleanup()

    if args.out and payload:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("campaign report written to %s" % args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
