"""The drivers x target-OSes x workloads differential validation matrix.

For every synthesized driver (loaded from cached pipeline
:class:`~repro.pipeline.artifact.RunArtifact`\\ s -- nothing is
re-reverse-engineered) and every target OS, each catalog scenario runs
twice: once as the baseline (the original binary on the source-OS harness)
and once as the candidate (the synthesized driver in the target-OS
template), and the two observations are compared field by field.

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
expected.  The matrix runs one job per driver column through the
pipeline orchestrator's one fan-out
(:meth:`repro.pipeline.orchestrator.PipelineOrchestrator.fan_out`),
each column loading (or, cold, computing and storing) its artifact from
the on-disk store.  Every run records its columns in
:attr:`MatrixResult.resilience`.
"""

import time
from dataclasses import dataclass, field

from repro.drivers import DRIVERS
from repro.validate.differ import Divergence, classify_observations
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

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], verdict=data["verdict"],
                   divergences=[Divergence.from_dict(d)
                                for d in data["divergences"]],
                   candidate_error=data["candidate_error"])


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
        """Scenario results this cell cannot account for: behavioral
        divergences anywhere, and unsupported results where equivalence
        was expected."""
        out = []
        for result in self.scenarios:
            if result.verdict == "divergent":
                out.append(result)
            elif result.verdict == "unsupported" \
                    and self.expected == "equivalent":
                out.append(result)
        return out

    def to_dict(self):
        return {"driver": self.driver, "target_os": self.target_os,
                "expected": self.expected,
                "scenarios": [s.to_dict() for s in self.scenarios]}

    @classmethod
    def from_dict(cls, data):
        return cls(driver=data["driver"], target_os=data["target_os"],
                   expected=data["expected"],
                   scenarios=[ScenarioResult.from_dict(s)
                              for s in data["scenarios"]])


@dataclass
class MatrixResult:
    """The full matrix plus how the run went."""

    cells: dict               # (driver, os_name) -> CellResult
    drivers: list
    os_names: list
    scenario_names: list
    wall_seconds: float = 0.0
    mode: str = "serial"
    #: :class:`~repro.faults.report.ResilienceReport` of this run
    resilience: object = None

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
            "mode": self.mode,
        }


def compute_column(artifact, os_names, scenario_names,
                   exec_backend="compiled"):
    """All cells for one driver, sharing one baseline per scenario.

    Pure function of the artifact and catalog; everything it returns
    serializes through ``to_dict``.
    ``exec_backend`` names the execution tier on *both* sides.
    """
    driver = artifact.name
    scenarios = [CATALOG[name] for name in scenario_names]
    supported_roles = set(artifact.synthesized.entry_points)
    baselines = {}
    cells = []
    for os_name in os_names:
        results = []
        for scenario in scenarios:
            if not supported_roles.issuperset(scenario.requires):
                results.append(ScenarioResult(scenario.name, "skipped"))
                continue
            candidate_dut = SynthesizedDut(artifact, os_name,
                                           exec_backend=exec_backend)
            baseline = baselines.get(scenario.name)
            if baseline is None:
                baseline = run_scenario(
                    OriginalDut(driver, exec_backend=exec_backend),
                    scenario)
                baselines[scenario.name] = baseline
            candidate = run_scenario(candidate_dut, scenario)
            outcome = classify_observations(baseline, candidate)
            results.append(ScenarioResult(scenario.name, outcome.verdict,
                                          outcome.divergences,
                                          outcome.candidate_error))
        cells.append(CellResult(driver=driver, target_os=os_name,
                                expected=expected_status(driver, os_name),
                                scenarios=results))
    return cells


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
        """Compute the full matrix; returns a :class:`MatrixResult`.

        One fan-out job per driver column.
        """
        # ``parallel`` is accepted and ignored: perfbench/worker.py passes it.
        from repro.faults.report import ResilienceReport

        started = time.monotonic()
        report = ResilienceReport()

        def compute(driver, _fault):
            artifact = self.orchestrator.run(driver, self.strategy,
                                             self.script)
            return compute_column(artifact, self.os_names,
                                  self.scenario_names,
                                  exec_backend=self.exec_backend)

        columns = self.orchestrator.fan_out(
            {driver: driver for driver in self.drivers}, compute, report)
        cells = {}
        for driver in self.drivers:
            for cell in columns[driver]:
                cells[(driver, cell.target_os)] = cell
        return MatrixResult(cells=cells, drivers=list(self.drivers),
                            os_names=list(self.os_names),
                            scenario_names=list(self.scenario_names),
                            wall_seconds=time.monotonic() - started,
                            resilience=report)


def run_matrix(orchestrator=None, **kwargs):
    """One-call entry point: build and run the full validation matrix."""
    return ValidationMatrix(orchestrator=orchestrator, **kwargs).run()
