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
expected.  The matrix fans out across the same supervised pool as the
pipeline orchestrator (:class:`repro.pipeline.pool.SupervisedPool`:
per-job timeout, bounded retry, classified failures) -- one job per
driver column, each loading (or, cold, computing and storing) its
artifact from the shared on-disk store -- with **per-column** serial
fallback: one misbehaving column never forces healthy columns to
recompute.  Every run records how it survived in
:attr:`MatrixResult.resilience`.
"""

import os
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
    mode: str = "serial"      # 'parallel' | 'serial'
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


def compute_column(artifact, os_names, scenario_names, exec_backend=None):
    """All cells for one driver, sharing one baseline per scenario.

    Pure function of the artifact and catalog -- safe to run in a worker
    process; everything it returns serializes through ``to_dict``.
    ``exec_backend`` overrides the execution tier on *both* sides
    (``None`` keeps the library default: compiled blocks everywhere).
    """
    driver = artifact.name
    scenarios = [CATALOG[name] for name in scenario_names]
    supported_roles = set(artifact.synthesized.entry_points)
    original_backend = "compiled" if exec_backend is None else exec_backend
    # The synthesized side has no per-instruction tier; "step" means the
    # tree-walking reference there.
    synth_backend = "interp" if exec_backend == "step" else exec_backend
    baselines = {}
    cells = []
    for os_name in os_names:
        results = []
        for scenario in scenarios:
            if not supported_roles.issuperset(scenario.requires):
                results.append(ScenarioResult(scenario.name, "skipped"))
                continue
            candidate_dut = SynthesizedDut(artifact, os_name,
                                           exec_backend=synth_backend)
            baseline = baselines.get(scenario.name)
            if baseline is None:
                baseline = run_scenario(
                    OriginalDut(driver, exec_backend=original_backend),
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


def _column_worker(job, fault=None):
    """Supervised-pool target: one driver's whole matrix column.

    The worker builds its own orchestrator over the shared store root:
    warm runs load the artifact in milliseconds, cold runs compute it here
    (that *is* the parallel cold matrix) and persist it for everyone else.
    """
    (driver, os_names, scenario_names, strategy, script, store_root,
     exec_backend) = job
    from repro.faults.inject import maybe_raise_run_fault
    from repro.pipeline.orchestrator import PipelineOrchestrator
    from repro.pipeline.store import ArtifactStore

    maybe_raise_run_fault(fault, "revnic")
    store = ArtifactStore(store_root) if store_root else False
    orchestrator = PipelineOrchestrator(store=store, parallel=False)
    artifact = orchestrator.run(driver, strategy, script)
    column = compute_column(artifact, os_names, scenario_names,
                            exec_backend=exec_backend)
    return driver, [cell.to_dict() for cell in column]


class ValidationMatrix:
    """Runs the differential matrix over the driver corpus."""

    def __init__(self, orchestrator=None, drivers=None, os_names=None,
                 scenarios=None, strategy="coverage", script="default",
                 exec_backend=None):
        from repro.pipeline.orchestrator import PipelineOrchestrator

        self.orchestrator = orchestrator or PipelineOrchestrator()
        self.drivers = sorted(DRIVERS) if drivers is None else list(drivers)
        self.os_names = list(OS_ORDER) if os_names is None else list(os_names)
        self.scenario_names = [s.name for s in SCENARIOS] \
            if scenarios is None else list(scenarios)
        self.strategy = strategy
        self.script = script
        #: execution-tier override for both comparison sides (None =
        #: compiled everywhere; "interp"/"step" for the ablation)
        self.exec_backend = exec_backend

    def run(self, parallel=None, faults=None):
        """Compute the full matrix; returns a :class:`MatrixResult`.

        ``faults`` maps driver name -> FaultSpec (chaos campaigns); the
        supervised pool retries faulted columns and any column it cannot
        heal falls back to serial recomputation -- per column, with every
        healthy column's pooled result kept.
        """
        from repro.faults.report import ResilienceReport

        started = time.monotonic()
        report = ResilienceReport()
        if parallel is None:
            parallel = self.orchestrator.parallel \
                and (os.cpu_count() or 1) > 1
        columns = {}
        pool_attempted = parallel and len(self.drivers) > 1
        if pool_attempted:
            with report.stage_timer("pool"):
                columns = self._run_pool(faults, report)
        mode = "parallel" if columns else "serial"
        missing = [d for d in self.drivers if d not in columns]
        if missing:
            with report.stage_timer("serial"):
                artifacts = self.orchestrator.warm(missing, self.strategy,
                                                   self.script,
                                                   parallel=False)
                for name in missing:
                    if pool_attempted:
                        report.record_degradation(
                            "matrix", "per-column serial fallback",
                            job=name)
                        report.record_outcome(name, "serial-fallback")
                    columns[name] = compute_column(
                        artifacts[name], self.os_names,
                        self.scenario_names,
                        exec_backend=self.exec_backend)
        cells = {}
        for driver in self.drivers:
            for cell in columns[driver]:
                cells[(driver, cell.target_os)] = cell
        return MatrixResult(cells=cells, drivers=list(self.drivers),
                            os_names=list(self.os_names),
                            scenario_names=list(self.scenario_names),
                            wall_seconds=time.monotonic() - started,
                            mode=mode, resilience=report)

    def _run_pool(self, faults, report):
        """Fan driver columns out across the supervised pool.

        Returns the columns that completed (possibly after retries) --
        never discarding healthy columns because another column failed.
        Columns the pool could not heal (all of them when the pool was
        unavailable) are left to the caller's per-column serial fallback.
        """
        from repro.pipeline.pool import SupervisedPool

        store = self.orchestrator.store
        store_root = store.root if store is not None else None
        jobs = [(driver, tuple(self.os_names), tuple(self.scenario_names),
                 self.strategy, self.script, store_root, self.exec_backend)
                for driver in self.drivers]

        def _validate(payload):
            driver, encoded = payload
            return driver, [CellResult.from_dict(c) for c in encoded]

        with SupervisedPool(_column_worker,
                            workers=self.orchestrator.max_workers,
                            timeout=self.orchestrator.job_timeout,
                            retries=self.orchestrator.retries) as pool:
            results, _failures = pool.run(
                jobs, labels=self.drivers, faults=faults,
                validate=_validate, report=report)
        return {driver: column
                for driver, column in results.values()}


def run_matrix(orchestrator=None, parallel=None, **kwargs):
    """One-call entry point: build and run the full validation matrix."""
    return ValidationMatrix(orchestrator=orchestrator, **kwargs) \
        .run(parallel=parallel)
