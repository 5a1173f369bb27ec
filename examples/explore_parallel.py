#!/usr/bin/env python
"""Run one driver's symbolic exploration serial and sharded, diff bytes.

The sharded-exploration contract (``repro.symex.frontier``): partitioning
the state frontier across worker processes changes wall time only --
the merged :class:`RunArtifact`'s canonical JSON must be byte-identical
to the serial run of the same partition.  This script runs both modes
cold and diffs the bytes; any divergence prints the first differing
canonical path and exits 1, and CI runs it with a fixed configuration so
a merge-determinism regression fails the build with both artifacts
preserved.  A sharded side that silently degraded to in-process
sub-trees (mode other than ``sharded``, or any fallback) also exits 1:
its bytes would match without proving anything.

Usage:
    PYTHONPATH=src python examples/explore_parallel.py [options]

Options:
    --driver NAME     driver to explore              (default rtl8139)
    --script NAME     exercise script                (default quick)
    --split-depth N   frontier split depth           (default 3)
    --workers N       sharded-side worker processes  (default 2)
    --out-serial P    write the serial canonical JSON here
    --out-sharded P   write the sharded canonical JSON here
"""

import argparse
import json
import sys
import time

from repro.drivers import DRIVERS, build_driver, device_class
from repro.pipeline.artifact import build_artifact, canonical_json
from repro.revnic import RevNic, RevNicConfig
from repro.synth import synthesize


def run_once(name, script, split_depth, workers):
    image = build_driver(name)
    config = RevNicConfig(driver_name=name, pci=device_class(name).PCI,
                          script=script, explore_split_depth=split_depth)
    engine = RevNic(image, config, explore_workers=workers)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    text = canonical_json(build_artifact(config, result,
                                         synthesize(result)))
    return text, result.stats, elapsed


def first_divergence(serial_text, sharded_text):
    """Walk both canonical trees to the first differing path."""
    def walk(a, b, path):
        if type(a) is not type(b):
            return path or "/", a, b
        if isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b:
                    return "%s/%s" % (path, key), a.get(key), b.get(key)
                found = walk(a[key], b[key], "%s/%s" % (path, key))
                if found:
                    return found
            return None
        if isinstance(a, list):
            if len(a) != len(b):
                return path or "/", "len=%d" % len(a), "len=%d" % len(b)
            for index, (left, right) in enumerate(zip(a, b)):
                found = walk(left, right, "%s[%d]" % (path, index))
                if found:
                    return found
            return None
        if a != b:
            return path or "/", a, b
        return None

    return walk(json.loads(serial_text), json.loads(sharded_text), "")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="serial-vs-sharded exploration byte diff")
    parser.add_argument("--driver", default="rtl8139",
                        choices=sorted(DRIVERS))
    parser.add_argument("--script", default="quick")
    parser.add_argument("--split-depth", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out-serial")
    parser.add_argument("--out-sharded")
    args = parser.parse_args(argv)

    serial_text, _, serial_seconds = run_once(
        args.driver, args.script, args.split_depth, workers=0)
    sharded_text, stats, sharded_seconds = run_once(
        args.driver, args.script, args.split_depth, workers=args.workers)
    for path, text in ((args.out_serial, serial_text),
                       (args.out_sharded, sharded_text)):
        if path:
            with open(path, "w") as handle:
                handle.write(text)

    front = stats.get("frontier", {})
    print("driver=%s script=%s split_depth=%d" %
          (args.driver, args.script, args.split_depth))
    print("serial   %.3fs" % serial_seconds)
    print("sharded  %.3fs  mode=%s workers=%s subtrees=%s per-worker=%s "
          "steals=%s fallbacks=%s" %
          (sharded_seconds, front.get("mode"), front.get("workers"),
           front.get("subtrees"), front.get("states_per_worker"),
           front.get("steals"), front.get("fallbacks")))
    if sharded_text != serial_text:
        divergence = first_divergence(serial_text, sharded_text)
        print("BYTE DIVERGENCE at %s:\n  serial : %r\n  sharded: %r"
              % divergence, file=sys.stderr)
        return 1
    print("artifacts byte-identical (%d bytes)" % len(serial_text))
    if front.get("mode") != "sharded" or front.get("fallbacks"):
        print("SHARDING DEGRADED: mode=%s fallbacks=%s"
              % (front.get("mode"), front.get("fallbacks")),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
