#!/usr/bin/env python
"""Run a bounded differential fuzz campaign and report it.

Seeded scenario programs (bursts, runts, oversize/bad-FCS frames, link
flaps, OID queries, resets, interleaved bidirectional traffic) run
through the DriverUnderTest facade on both the original binary and every
synthesized target-OS driver, loop-until-dry.  Any non-matching run
carries its serialized program, so a single JSON file reproduces it.

Usage:
    PYTHONPATH=src python examples/fuzz_run.py [options]

Options:
    --base-seed N           first program seed        (default 0xC0FFEE)
    --programs-per-round N  programs per fuzz round   (default 3)
    --max-rounds N          round budget              (default 5)
    --dry-rounds N          dry rounds before stop    (default 2)
    --drivers a,b           driver subset             (default: all)
    --os-names a,b          target OS subset          (default: all)
    --out PATH              write the full campaign JSON here
    --divergences PATH      write unexplained runs (with their replayable
                            programs) here; only written when non-empty

Exit status is 1 when any unexplained divergence survives -- CI runs
this with fixed seeds and uploads the divergence file as an artifact.
"""

import argparse
import json
import sys

from repro.fuzz import FuzzConfig, FuzzEngine, fuzz_to_json
from repro.pipeline import PipelineOrchestrator


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bounded differential fuzz campaign")
    parser.add_argument("--base-seed", type=int, default=0xC0FFEE)
    parser.add_argument("--programs-per-round", type=int, default=3)
    parser.add_argument("--max-rounds", type=int, default=5)
    parser.add_argument("--dry-rounds", type=int, default=2)
    parser.add_argument("--drivers", default="")
    parser.add_argument("--os-names", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--divergences", default="")
    args = parser.parse_args(argv)

    kwargs = dict(base_seed=args.base_seed,
                  programs_per_round=args.programs_per_round,
                  max_rounds=args.max_rounds, dry_rounds=args.dry_rounds)
    if args.drivers:
        kwargs["drivers"] = tuple(args.drivers.split(","))
    if args.os_names:
        kwargs["os_names"] = tuple(args.os_names.split(","))

    engine = FuzzEngine(orchestrator=PipelineOrchestrator(),
                        config=FuzzConfig(**kwargs))
    result = engine.run()

    summary = result.summary()
    print("fuzz campaign: %(programs)d programs, %(runs)d runs, "
          "%(steps)d steps, %(rounds)d rounds (stopped: %(stopped)s)"
          % summary)
    print("verdicts: %(matched)d matched, %(unsupported)d unsupported, "
          "%(divergent)d divergent, %(skipped)d skipped" % summary)
    print("coverage: %(coverage)d features, %(wall_seconds).1fs" % summary)

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(fuzz_to_json(result))
        print("campaign written to %s" % args.out)

    unexplained = result.unexplained()
    if unexplained:
        print("\n%d UNEXPLAINED divergence(s):" % len(unexplained))
        for run in unexplained:
            print("  %s on %s: %s (program %s, seed %d)"
                  % (run.driver, run.target_os, run.verdict,
                     run.program_name, run.seed))
        if args.divergences:
            payload = [run.to_dict() for run in unexplained]
            with open(args.divergences, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("replayable divergence report written to %s"
                  % args.divergences)
        return 1
    print("\nno unexplained divergences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
