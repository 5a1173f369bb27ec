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
                             base_seed 12648430, 3 programs a round),
              "observations": sha256(canonical JSON of the list of every
                                     original-binary baseline
                                     Observation.to_dict() that run_column
                                     yields over the catalog, drivers in
                                     sorted order),
              "mirror": sha256(canonical JSON of the list of every
                               run_mirrored_program(...).to_dict() of
                               a compiled synthesized driver behind the
                               2-port switch, catalog program x OS_ORDER
                               OS, drivers in sorted order),
              "eval": sha256(canonical JSON of {"table2": table2_compute(),
                                                "fig2".."fig7":
                                                figN_compute()}, every
                             dataclass point through asdict)}}

The artifact, fabric and fuzz digests hash each document's canonical
form, which drops its top-level ``volatile`` section (wall clock,
throughput, scheduler mode); the matrix has no document of its own, so
its summary's one timing, ``wall_seconds``, is left out here.

The matrix document covers every cell's verdicts -- each scenario's
verdict, divergences and candidate error -- but not the observations
themselves: a matched scenario records neither side's.  The
``observations`` section covers them: a matched candidate saw what its
baseline saw, so together with the cells it pins what every side of the
matrix saw (the benchmark's ``matrix_warm`` pass digests only the
summary).  The baseline is shared by every target OS, so the section
runs the column on the first OS alone and each baseline counts once.
The ``mirror`` section pins the fabric-side observations of the
switch-transparency differential the same way, one per catalog program,
target OS and driver.
The ``eval`` section pins the paper's Table 2 feature checks and the
measured performance curves of Figures 2-7, both driven through the
miniport fronts of the two sides (about 1 s of CPU on a warm store).
The fabric document is the one the benchmark's ``fabric_saturation``
pass digests, so a change to the guest VM can show its matrix
observations and fabric reports are byte-identical; the fuzz digest
covers the differential fuzzer's campaign bytes the same way.

Usage:
    PYTHONPATH=src python tools/artifact_digests.py [--warm] [--out FILE]
    PYTHONPATH=src python tools/artifact_digests.py [--warm] --check FILE
        [--sections c_source,coverage]

``--out FILE`` also writes the JSON to FILE.  ``--check FILE`` compares
against digests written earlier and exits 1, naming every driver (or
``warm``) and section whose digest differs (or is missing on either
side).  ``--sections`` limits the comparison to the named sections, so
a change that only moves run counters can be checked against its
parent's digests without hiding a change to the C source or coverage.
To digest another commit, run this tool with ``PYTHONPATH`` pointing
at that commit's ``src``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WARM_SECTIONS = ("eval", "fabric", "fuzz", "matrix", "mirror",
                 "observations")
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
    """Digest of one warm ``section`` (one of :data:`WARM_SECTIONS`),
    computed in-process over the default artifact store."""
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
    if section == "observations":
        from repro.drivers import DRIVERS
        from repro.validate.matrix import OS_ORDER, run_column
        from repro.validate.scenarios import SCENARIOS

        observations = [
            baseline.to_dict()
            for driver in sorted(DRIVERS)
            for _workload, _os, baseline, _outcome in run_column(
                orchestrator.run(driver), OS_ORDER[:1], SCENARIOS)
            if baseline is not None]
        return _sha256(canonical_dumps(observations))
    if section == "mirror":
        from repro.drivers import DRIVERS
        from repro.net.fabric import run_mirrored_program
        from repro.validate.matrix import OS_ORDER
        from repro.validate.observe import SynthesizedDut
        from repro.validate.scenarios import SCENARIOS

        observations = [
            run_mirrored_program(
                SynthesizedDut(orchestrator.run(driver), os_name,
                               exec_backend="compiled"),
                program).to_dict()
            for driver in sorted(DRIVERS)
            for program in SCENARIOS
            for os_name in OS_ORDER]
        return _sha256(canonical_dumps(observations))
    if section == "eval":
        from dataclasses import asdict, is_dataclass

        from repro.eval import figures
        from repro.eval.tables import table2_compute

        document = {"table2": table2_compute(orchestrator)}
        for number in range(2, 8):
            series = getattr(figures, "fig%d_compute" % number)(
                cache=orchestrator)
            document["fig%d" % number] = {
                name: [asdict(point) if is_dataclass(point) else point
                       for point in points]
                for name, points in series.items()}
        return _sha256(canonical_dumps(document))
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


def differences(expected, digests, sections=None):
    """``[(name, section, expected, got)]`` for every mismatch, over
    ``sections`` only when given."""
    out = []
    for name in sorted(set(expected) | set(digests)):
        want = expected.get(name, {})
        got = digests.get(name, {})
        for section in sorted(set(want) | set(got)):
            if sections is not None and section not in sections:
                continue
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
                        help="digest the warm validation matrix, its "
                             "baseline observations, the fabric mirror, the "
                             "fabric, a fuzz campaign and the paper's "
                             "Table 2 and Figures 2-7 instead of the "
                             "driver artifacts")
    parser.add_argument("--sections", metavar="A,B",
                        help="with --check, compare only these "
                             "comma-separated sections")
    parser.add_argument("--driver", help=argparse.SUPPRESS)
    parser.add_argument("--warm-section", choices=WARM_SECTIONS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sections and not args.check:
        parser.error("--sections needs --check")
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
        sections = args.sections.split(",") if args.sections else None
        bad = differences(expected, digests, sections)
        for name, section, want, got in bad:
            print("digest differs: %s %s (expected %s, got %s)"
                  % (name, section, want, got), file=sys.stderr)
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
