#!/usr/bin/env python
"""Print per-section sha256 digests of every driver's canonical artifact.

Each driver's full pipeline (``execute_run``: RevNIC, then synthesis)
runs cold in its own fresh interpreter, one after another, with the
artifact store off (``REVNIC_ARTIFACT_CACHE=off``).  The result is one
JSON object on stdout::

    {driver: {"artifact": sha256(canonical_json),
              "c_source": sha256(synthesized C source),
              "coverage": sha256(canonical coverage section)}}

so the outputs of two commits can be diffed section by section.  A change
that claims to preserve behaviour must leave every digest as it was; a
change that only moves run counters (an artifact schema bump, say) must
leave ``c_source`` and ``coverage`` as they were.

Usage:
    PYTHONPATH=src python tools/artifact_digests.py [--out FILE]
    PYTHONPATH=src python tools/artifact_digests.py --check FILE

``--out FILE`` also writes the JSON to FILE.  ``--check FILE`` compares
against digests written earlier and exits 1, naming every driver and
section whose digest differs (or is missing on either side).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SECTIONS = ("artifact", "c_source", "coverage")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def driver_digests(name):
    """``{section: digest}`` of one driver's canonical artifact,
    computed in-process."""
    from repro.pipeline.artifact import canonical_dumps, canonical_json
    from repro.pipeline.orchestrator import execute_run

    text = canonical_json(execute_run(name))
    data = json.loads(text)
    return {"artifact": _sha256(text),
            "c_source": _sha256(data["synthesized"]["c_source"]),
            "coverage": _sha256(canonical_dumps(data["coverage"]))}


def all_digests():
    """``{driver: {section: digest}}``, each driver computed in a fresh
    interpreter."""
    from repro.drivers import DRIVERS

    env = dict(os.environ, REVNIC_ARTIFACT_CACHE="off")
    digests = {}
    for name in sorted(DRIVERS):
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--driver", name],
            env=env, check=True, capture_output=True, text=True).stdout
        digests[name] = json.loads(output.splitlines()[-1])
    return digests


def differences(expected, digests):
    """``[(driver, section, expected, got)]`` for every mismatch."""
    out = []
    for name in sorted(set(expected) | set(digests)):
        want = expected.get(name, {})
        got = digests.get(name, {})
        for section in SECTIONS:
            if want.get(section) != got.get(section):
                out.append((name, section, want.get(section),
                            got.get(section)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="per-section sha256 of each driver's canonical "
                    "run artifact")
    parser.add_argument("--out", help="also write the JSON digests here")
    parser.add_argument("--check", metavar="FILE",
                        help="compare against digests written earlier")
    parser.add_argument("--driver", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.driver:
        print(json.dumps(driver_digests(args.driver), sort_keys=True))
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
        bad = differences(expected, digests)
        for name, section, want, got in bad:
            print("digest differs: %s %s (expected %s, got %s)"
                  % (name, section, want, got), file=sys.stderr)
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
