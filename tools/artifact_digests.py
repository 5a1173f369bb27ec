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

``--warm`` digests the warm workloads instead, each in its own fresh
interpreter over artifacts from the default store (warmed first, so a
cold store is filled once)::

    {"warm": {"matrix": sha256(canonical JSON of every validation-matrix
                               cell's to_dict(), sorted by (driver, os),
                               plus the summary without wall_seconds),
              "fabric": sha256(canonical_fabric_json of the batched,
                               compiled 64-endpoint saturation fleet,
                               seed 7),
              "fuzz": sha256(canonical_fuzz_json of a two-round
                             campaign from the CI fuzz job's seed,
                             base_seed 12648430, 3 programs a round)}}

The artifact, fabric and fuzz digests hash each document's canonical
form, which drops its top-level ``volatile`` section (wall clock,
throughput, scheduler mode); the matrix has no document of its own, so
its summary's one timing, ``wall_seconds``, is left out here.

The matrix document covers what every cell saw -- each scenario's
verdict, divergences and candidate error -- so a change that moves a
cell's observations without flipping a verdict moves the digest (the
benchmark's ``matrix_warm`` pass digests only the summary).  The fabric
document is the one the benchmark's ``fabric_saturation`` pass
digests, so a change to the guest VM can show its matrix observations
and fabric reports are byte-identical; the fuzz digest covers the
differential fuzzer's campaign bytes the same way.

Usage:
    PYTHONPATH=src python tools/artifact_digests.py [--warm] [--out FILE]
    PYTHONPATH=src python tools/artifact_digests.py [--warm] --check FILE

``--out FILE`` also writes the JSON to FILE.  ``--check FILE`` compares
against digests written earlier and exits 1, naming every driver (or
``warm``) and section whose digest differs (or is missing on either
side).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WARM_SECTIONS = ("fabric", "fuzz", "matrix")
FABRIC_ENDPOINTS = 64
FABRIC_SEED = 7
#: The CI fuzz job's campaign, cut to two rounds.
FUZZ_CAMPAIGN = {"base_seed": 12648430, "programs_per_round": 3,
                 "max_rounds": 2}


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


def warm_digest(section):
    """Digest of one warm ``section`` (``matrix``, ``fabric`` or
    ``fuzz``), computed in-process over the default artifact store."""
    from repro.pipeline.artifact import canonical_dumps
    from repro.pipeline.orchestrator import PipelineOrchestrator

    orchestrator = PipelineOrchestrator()
    orchestrator.warm()
    if section == "matrix":
        from repro.validate.matrix import ValidationMatrix

        result = ValidationMatrix(orchestrator=orchestrator).run()
        summary = result.summary()
        summary.pop("wall_seconds")
        cells = [cell.to_dict()
                 for _key, cell in sorted(result.cells.items())]
        return _sha256(canonical_dumps({"cells": cells,
                                        "summary": summary}))
    if section == "fuzz":
        from repro.fuzz.artifact import canonical_fuzz_json
        from repro.fuzz.engine import run_fuzz

        result = run_fuzz(orchestrator=orchestrator, **FUZZ_CAMPAIGN)
        return _sha256(canonical_fuzz_json(result))
    from repro.net.fabric import build_workload, canonical_fabric_json, \
        run_fleet

    plan = build_workload("saturation", FABRIC_ENDPOINTS, FABRIC_SEED)
    report = run_fleet(plan, orchestrator=orchestrator, mode="batched",
                       backends=("compiled",))
    return _sha256(canonical_fabric_json(report))


def _in_child(flag, value, env=None):
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag, value],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(output.splitlines()[-1])


def all_digests():
    """``{driver: {section: digest}}``, each driver computed in a fresh
    interpreter."""
    from repro.drivers import DRIVERS

    env = dict(os.environ, REVNIC_ARTIFACT_CACHE="off")
    return {name: _in_child("--driver", name, env)
            for name in sorted(DRIVERS)}


def all_warm_digests():
    """``{"warm": {section: digest}}``, each section computed in a fresh
    interpreter once the default store holds every driver's artifact."""
    from repro.pipeline.orchestrator import PipelineOrchestrator

    PipelineOrchestrator().warm()
    return {"warm": {section: _in_child("--warm-section", section)
                     for section in WARM_SECTIONS}}


def differences(expected, digests):
    """``[(name, section, expected, got)]`` for every mismatch."""
    out = []
    for name in sorted(set(expected) | set(digests)):
        want = expected.get(name, {})
        got = digests.get(name, {})
        for section in sorted(set(want) | set(got)):
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
    parser.add_argument("--warm", action="store_true",
                        help="digest the warm validation matrix, fabric "
                             "and fuzz campaign instead of the driver "
                             "artifacts")
    parser.add_argument("--driver", help=argparse.SUPPRESS)
    parser.add_argument("--warm-section", choices=WARM_SECTIONS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.driver:
        print(json.dumps(driver_digests(args.driver), sort_keys=True))
        return 0
    if args.warm_section:
        print(json.dumps(warm_digest(args.warm_section)))
        return 0

    digests = all_warm_digests() if args.warm else all_digests()
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
