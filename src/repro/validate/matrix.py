"""The drivers x target-OSes x workloads differential validation matrix.

For every synthesized driver (loaded from cached pipeline
:class:`~repro.pipeline.artifact.RunArtifact`\\ s -- nothing is
re-reverse-engineered), each catalog scenario runs once as the baseline
(the original binary on the source-OS harness, shared by every target
OS) and once per target OS as the candidate (the synthesized driver in
the target-OS template), and each pair of observations is compared field
by field.  :func:`run_column` is that loop; it is the one differential
column runner, which the scenario fuzzer (:mod:`repro.fuzz.differential`)
and the soak (:mod:`repro.fuzz.soak`) drive too.

Cell semantics:

* ``equivalent`` -- every non-skipped scenario matched exactly;
* ``unsupported`` -- every non-skipped scenario failed with a
  ``TemplateError`` (an OS that cannot host the driver, e.g. the DMA
  drivers on uC/OS-II, which has no shared-memory API -- the paper never
  ports them there either, Table 1);
* ``divergent`` -- at least one scenario exhibited a real behavioral
  difference;
* ``skipped`` -- no scenario could run (reduced-script artifacts).

Each cell also carries its *expectation*; an **unexplained** divergence is
any behavioral mismatch, or an unsupported result where equivalence was
expected.  The matrix runs its driver columns one after another in
this process, each column loading (or, cold, computing and storing) its
artifact through the pipeline orchestrator; a column that fails raises
its classified error.
"""

import time
from dataclasses import dataclass, field

from repro.drivers import DRIVERS
from repro.validate.differ import classify_observations, is_unexplained
from repro.validate.observe import OriginalDut, SynthesizedDut
from repro.validate.scenarios import CATALOG, SCENARIOS, run_scenario

#: Target OSes in matrix-column order.
OS_ORDER = ("winsim", "linsim", "ucsim", "kitos")

#: Cells where the template layer cannot host the driver at all; the
#: matrix *verifies* these stay unsupported rather than assuming them.
EXPECTED_UNSUPPORTED = {
    ("rtl8139", "ucsim"): "bus-master DMA driver; ucsim has no "
                          "shared-memory DMA API",
    ("pcnet", "ucsim"): "bus-master DMA driver; ucsim has no "
                        "shared-memory DMA API",
}


def expected_status(driver, os_name):
    """'equivalent' or 'unsupported': what this cell should report."""
    if (driver, os_name) in EXPECTED_UNSUPPORTED:
        return "unsupported"
    return "equivalent"


@dataclass
class ScenarioResult:
    """One scenario's verdict inside one cell."""

    name: str
    verdict: str              # 'match' | 'divergent' | 'unsupported' | 'skipped'
    divergences: list = field(default_factory=list)
    candidate_error: str = ""

    def to_dict(self):
        return {"name": self.name, "verdict": self.verdict,
                "divergences": [d.to_dict() for d in self.divergences],
                "candidate_error": self.candidate_error}


@dataclass
class CellResult:
    """One (driver, target OS) cell of the matrix."""

    driver: str
    target_os: str
    expected: str             # 'equivalent' | 'unsupported'
    scenarios: list = field(default_factory=list)

    @property
    def ran(self):
        return [s for s in self.scenarios if s.verdict != "skipped"]

    @property
    def matched(self):
        return [s for s in self.scenarios if s.verdict == "match"]

    @property
    def status(self):
        ran = self.ran
        if not ran:
            return "skipped"
        if all(s.verdict == "match" for s in ran):
            return "equivalent"
        if all(s.verdict == "unsupported" for s in ran):
            return "unsupported"
        return "divergent"

    def unexplained(self):
        """Scenario results this cell cannot account for
        (:func:`~repro.validate.differ.is_unexplained`)."""
        return [result for result in self.scenarios
                if is_unexplained(result.verdict, self.expected)]

    def to_dict(self):
        return {"driver": self.driver, "target_os": self.target_os,
                "expected": self.expected,
                "scenarios": [s.to_dict() for s in self.scenarios]}


@dataclass
class MatrixResult:
    """The full matrix plus its wall clock."""

    cells: dict               # (driver, os_name) -> CellResult
    drivers: list
    os_names: list
    scenario_names: list
    wall_seconds: float = 0.0

    def cell(self, driver, os_name):
        return self.cells[(driver, os_name)]

    def unexplained(self):
        """[(driver, os, ScenarioResult)] the matrix cannot account for."""
        out = []
        for (driver, os_name), cell in sorted(self.cells.items()):
            for result in cell.unexplained():
                out.append((driver, os_name, result))
        return out

    def summary(self):
        statuses = [cell.status for cell in self.cells.values()]
        return {
            "cells": len(self.cells),
            "equivalent": statuses.count("equivalent"),
            "unsupported": statuses.count("unsupported"),
            "divergent": statuses.count("divergent"),
            "skipped": statuses.count("skipped"),
            "scenarios_run": sum(len(cell.ran)
                                 for cell in self.cells.values()),
            "scenarios_matched": sum(len(cell.matched)
                                     for cell in self.cells.values()),
            "unexplained": len(self.unexplained()),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_column(artifact, os_names, workloads, exec_backend="compiled"):
    """The differential column runner: every workload x target OS for one
    driver's artifact, yielding ``(workload, os_name, baseline, outcome)``
    workload-outer, OS-inner.

    A workload whose ``requires`` is not a subset of the artifact's entry
    points builds no DUT and yields ``baseline`` and ``outcome`` as
    ``None`` for every OS.  Otherwise the original binary runs it once
    (the baseline, shared by every OS), then one synthesized candidate
    per OS, classified by :func:`classify_observations`.  Workloads are
    :class:`~repro.net.traffic.ScenarioProgram`\\ s; ``exec_backend``
    names the execution tier on *both* sides.
    """
    driver = artifact.name
    supported = set(artifact.synthesized.entry_points)
    for workload in workloads:
        if not supported.issuperset(workload.requires):
            for os_name in os_names:
                yield workload, os_name, None, None
            continue
        baseline = run_scenario(
            OriginalDut(driver, exec_backend=exec_backend), workload)
        for os_name in os_names:
            candidate = run_scenario(
                SynthesizedDut(artifact, os_name, exec_backend=exec_backend),
                workload)
            yield (workload, os_name, baseline,
                   classify_observations(baseline, candidate))


def compute_column(artifact, os_names, scenario_names,
                   exec_backend="compiled"):
    """All cells for one driver: :func:`run_column` over the named
    catalog scenarios, one :class:`CellResult` per OS."""
    driver = artifact.name
    cells = {os_name: CellResult(driver, os_name,
                                 expected_status(driver, os_name))
             for os_name in os_names}
    scenarios = [CATALOG[name] for name in scenario_names]
    for scenario, os_name, _baseline, outcome in run_column(
            artifact, os_names, scenarios, exec_backend=exec_backend):
        if outcome is None:
            result = ScenarioResult(scenario.name, "skipped")
        else:
            result = ScenarioResult(scenario.name, outcome.verdict,
                                    outcome.divergences,
                                    outcome.candidate_error)
        cells[os_name].scenarios.append(result)
    return list(cells.values())


class ValidationMatrix:
    """Runs the differential matrix over the driver corpus."""

    def __init__(self, orchestrator=None, drivers=None, os_names=None,
                 scenarios=None, strategy="coverage", script="default",
                 exec_backend="compiled"):
        from repro.pipeline.orchestrator import PipelineOrchestrator

        self.orchestrator = orchestrator or PipelineOrchestrator()
        self.drivers = sorted(DRIVERS) if drivers is None else list(drivers)
        self.os_names = list(OS_ORDER) if os_names is None else list(os_names)
        self.scenario_names = [s.name for s in SCENARIOS] \
            if scenarios is None else list(scenarios)
        self.strategy = strategy
        self.script = script
        #: execution tier of both comparison sides ("compiled" everywhere;
        #: the slower tiers for the ablation)
        self.exec_backend = exec_backend

    def run(self, parallel=None):
        """Compute the full matrix, one driver column after another;
        returns a :class:`MatrixResult`."""
        # ``parallel`` is accepted and ignored: perfbench/worker.py passes it.
        started = time.monotonic()
        cells = {}
        for driver in self.drivers:
            artifact = self.orchestrator.run(driver, self.strategy,
                                             self.script)
            for cell in compute_column(artifact, self.os_names,
                                       self.scenario_names,
                                       exec_backend=self.exec_backend):
                cells[(driver, cell.target_os)] = cell
        return MatrixResult(cells=cells, drivers=list(self.drivers),
                            os_names=list(self.os_names),
                            scenario_names=list(self.scenario_names),
                            wall_seconds=time.monotonic() - started)


def run_matrix(orchestrator=None, **kwargs):
    """One-call entry point: build and run the full validation matrix."""
    return ValidationMatrix(orchestrator=orchestrator, **kwargs).run()
