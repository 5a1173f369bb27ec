#!/usr/bin/env python
"""Print the sha256 of every driver's canonical run artifact.

Each driver's full pipeline (``execute_run``: RevNIC, then synthesis)
runs cold in its own fresh interpreter, one after another, with the
artifact store off (``REVNIC_ARTIFACT_CACHE=off``).  The result is one
JSON object ``{driver: sha256(canonical_json)}`` on stdout, so the
outputs of two commits can be diffed: a change that claims to preserve
behaviour must leave every digest as it was.

Usage:
    PYTHONPATH=src python tools/artifact_digests.py [--out FILE]
    PYTHONPATH=src python tools/artifact_digests.py --check FILE

``--out FILE`` also writes the JSON to FILE.  ``--check FILE`` compares
against digests written earlier and exits 1, naming every driver whose
digest differs (or is missing on either side).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys


def driver_digest(name):
    """Digest of one driver's canonical artifact, computed in-process."""
    from repro.pipeline.artifact import canonical_json
    from repro.pipeline.orchestrator import execute_run

    text = canonical_json(execute_run(name))
    return hashlib.sha256(text.encode()).hexdigest()


def all_digests():
    """``{driver: digest}``, each driver computed in a fresh interpreter."""
    from repro.drivers import DRIVERS

    env = dict(os.environ, REVNIC_ARTIFACT_CACHE="off")
    digests = {}
    for name in sorted(DRIVERS):
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--driver", name],
            env=env, check=True, capture_output=True, text=True).stdout
        digests[name] = output.split()[-1]
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sha256 of each driver's canonical run artifact")
    parser.add_argument("--out", help="also write the JSON digests here")
    parser.add_argument("--check", metavar="FILE",
                        help="compare against digests written earlier")
    parser.add_argument("--driver", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.driver:
        print(driver_digest(args.driver))
        return 0

    digests = all_digests()
    text = json.dumps(digests, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.check:
        with open(args.check) as handle:
            expected = json.load(handle)
        bad = sorted(name for name in set(expected) | set(digests)
                     if expected.get(name) != digests.get(name))
        for name in bad:
            print("digest differs: %s (expected %s, got %s)"
                  % (name, expected.get(name), digests.get(name)),
                  file=sys.stderr)
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
