"""Chaos campaigns: prove the pipeline is loud-or-identical under fault.

A campaign composes the seeded fault plane (:mod:`repro.faults.plan`)
with the pipeline orchestrator and the differential fuzzer, and checks
the one invariant robustness hinges on: **under any injected fault
schedule the pipeline either produces byte-identical canonical artifacts
to the fault-free run, or fails loudly with a classified, replayable
fault record -- never a silent wrong answer.**

Per schedule: generate the :class:`FaultPlan` for a seed, stand up a
fresh artifact store (primed from a pristine copy when the plan carries
store-layer faults, cold otherwise), vandalize it per the plan, then
warm the driver corpus through the supervised pool with the plan's
worker/run faults installed.  A warm-up that completes must match the
fault-free baseline byte for byte (``canonical_json``); one that raises
must leave a :class:`~repro.faults.report.FaultRecord` behind.  Anything
else raises :class:`ChaosInvariantError` -- the campaign itself is the
assertion.

``fuzz_invariant`` runs the same bargain through the PR-6 differential
fuzzer: a seeded fuzz campaign executed under a worker-fault schedule
must produce ``canonical_fuzz_json`` bytes identical to its fault-free
twin.
"""

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.faults.inject import corrupt_store_entry
from repro.faults.plan import FaultPlan, FaultPlanGenerator
from repro.pipeline.artifact import canonical_json
from repro.pipeline.orchestrator import PipelineOrchestrator
from repro.pipeline.store import ArtifactStore


class ChaosInvariantError(ReproError):
    """The pipeline broke the chaos bargain: a fault schedule produced a
    silently wrong (or silently missing) answer instead of byte-identical
    artifacts or a loud classified failure."""


@dataclass
class ChaosOutcome:
    """What one fault schedule did to the pipeline -- and how it ended."""

    seed: int
    plan: dict                  # serialized FaultPlan (the replay key)
    verdict: str                # 'identical' | 'faulted'
    error: str = ""             # classified error text when 'faulted'
    fault_records: list = field(default_factory=list)
    resilience: dict = field(default_factory=dict)
    store_faults: list = field(default_factory=list)

    def to_dict(self):
        return {"seed": self.seed, "plan": self.plan,
                "verdict": self.verdict, "error": self.error,
                "fault_records": list(self.fault_records),
                "resilience": dict(self.resilience),
                "store_faults": list(self.store_faults)}


@dataclass
class ChaosReport:
    """One campaign's outcomes."""

    drivers: tuple
    strategy: str
    script: str
    outcomes: list = field(default_factory=list)

    def summary(self):
        verdicts = [outcome.verdict for outcome in self.outcomes]
        return {"schedules": len(self.outcomes),
                "identical": verdicts.count("identical"),
                "faulted": verdicts.count("faulted"),
                "retries": sum(o.resilience.get("retries", 0)
                               for o in self.outcomes),
                "timeouts": sum(o.resilience.get("timeouts", 0)
                                for o in self.outcomes),
                "quarantined": sum(o.resilience.get("quarantined", 0)
                                   for o in self.outcomes),
                "recovered_tmp": sum(o.resilience.get("recovered_tmp", 0)
                                     for o in self.outcomes)}

    def to_dict(self):
        return {"drivers": list(self.drivers), "strategy": self.strategy,
                "script": self.script,
                "outcomes": [o.to_dict() for o in self.outcomes],
                "summary": self.summary()}


class ChaosCampaign:
    """Runs seeded fault schedules against the pipeline and asserts the
    loud-or-identical invariant on every one of them."""

    def __init__(self, drivers=None, strategy="coverage", script="quick",
                 generator=None, job_timeout=20.0, retries=2,
                 workdir=None):
        from repro.drivers import DRIVERS

        self.drivers = tuple(sorted(DRIVERS)) if drivers is None \
            else tuple(drivers)
        self.strategy = strategy
        self.script = script
        self.generator = generator or FaultPlanGenerator(
            jobs=len(self.drivers))
        #: per-job supervision budget; hang faults sleep far past this,
        #: so keep it small enough that a campaign stays affordable.
        self.job_timeout = job_timeout
        self.retries = retries
        self._workdir = workdir
        self._own_workdir = workdir is None
        self._baseline = None           # {driver: canonical_json bytes}
        self._pristine_root = None      # fault-free store to prime from

    # ------------------------------------------------------------------

    def workdir(self):
        if self._workdir is None:
            self._workdir = tempfile.mkdtemp(prefix="chaos-")
        return self._workdir

    def cleanup(self):
        """Remove the campaign's scratch stores (owned tempdirs only)."""
        if self._own_workdir and self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
            self._pristine_root = None
            self._baseline = None

    def baseline(self):
        """Fault-free canonical artifacts (computed once, serially);
        also primes the pristine store that store-fault schedules copy."""
        if self._baseline is None:
            self._pristine_root = os.path.join(self.workdir(), "pristine")
            orchestrator = PipelineOrchestrator(
                store=ArtifactStore(self._pristine_root), parallel=False)
            artifacts = orchestrator.warm(self.drivers, self.strategy,
                                          self.script, parallel=False)
            self._baseline = {name: canonical_json(artifacts[name])
                              for name in self.drivers}
        return self._baseline

    # ------------------------------------------------------------------

    def fault_map(self, plan):
        """Resolve a plan's worker/run faults to driver names (first
        fault per driver wins; targets wrap around the sorted corpus)."""
        mapping = {}
        for spec in plan.faults:
            if spec.layer not in ("worker", "run"):
                continue
            driver = self.drivers[spec.target % len(self.drivers)]
            mapping.setdefault(driver, spec)
        return mapping

    def run_schedule(self, plan_or_seed):
        """Run one fault schedule; returns a :class:`ChaosOutcome`.

        Raises :class:`ChaosInvariantError` when the schedule produced a
        silent wrong answer (artifact bytes diverged from the fault-free
        baseline) or an unclassified failure (an exception with no
        replayable fault record behind it).
        """
        plan = plan_or_seed if isinstance(plan_or_seed, FaultPlan) \
            else self.generator.plan(plan_or_seed)
        baseline = self.baseline()

        schedule_dir = tempfile.mkdtemp(prefix="seed%d-" % plan.seed,
                                        dir=self.workdir())
        store_root = os.path.join(schedule_dir, "store")
        store_faults = plan.layer("store")
        if store_faults:
            # Store faults need entries to corrupt: prime from the
            # pristine fault-free store, then vandalize per the plan.
            shutil.copytree(self._pristine_root, store_root)
        store = ArtifactStore(store_root)
        applied = []
        for spec in store_faults:
            record = corrupt_store_entry(store, spec)
            if record is not None:
                applied.append(record)

        orchestrator = PipelineOrchestrator(
            store=store, parallel=True, job_timeout=self.job_timeout,
            retries=self.retries)
        outcome = ChaosOutcome(seed=plan.seed, plan=plan.to_dict(),
                               verdict="identical",
                               store_faults=applied)
        try:
            artifacts = orchestrator.warm(self.drivers, self.strategy,
                                          self.script, parallel=True,
                                          faults=self.fault_map(plan))
        except ReproError as exc:
            report = orchestrator.last_resilience
            records = report.fault_records if report is not None else []
            if not records:
                raise ChaosInvariantError(
                    "schedule seed=%d failed without a classified fault "
                    "record: %s: %s (plan %s)"
                    % (plan.seed, type(exc).__name__, exc,
                       plan.to_json()))
            outcome.verdict = "faulted"
            outcome.error = "%s: %s" % (type(exc).__name__, exc)
            outcome.fault_records = [r.to_dict() for r in records]
        else:
            mismatched = [name for name in self.drivers
                          if canonical_json(artifacts[name])
                          != baseline[name]]
            if mismatched:
                raise ChaosInvariantError(
                    "SILENT WRONG ANSWER: schedule seed=%d completed but "
                    "artifacts diverged from the fault-free baseline for "
                    "%s (plan %s)"
                    % (plan.seed, ", ".join(mismatched), plan.to_json()))
        report = orchestrator.last_resilience
        if report is not None:
            outcome.resilience = report.to_dict()
        shutil.rmtree(schedule_dir, ignore_errors=True)
        return outcome

    def run(self, base_seed=0xFA0175, schedules=3, plans=None):
        """Run ``schedules`` seeded fault schedules (or explicit
        ``plans``); returns a :class:`ChaosReport`."""
        if plans is None:
            plans = self.generator.plans(base_seed, schedules)
        self.baseline()
        report = ChaosReport(drivers=self.drivers, strategy=self.strategy,
                             script=self.script)
        for plan in plans:
            report.outcomes.append(self.run_schedule(plan))
        return report

    # ------------------------------------------------------------------

    def fuzz_invariant(self, seed, **fuzz_kwargs):
        """Compose the fault plane with the differential fuzzer.

        Runs one small seeded fuzz campaign fault-free, then again under
        the worker-fault schedule for ``seed`` (same warm store, so the
        faults land on the fuzz columns themselves); the two campaigns
        must be canonically byte-identical.  Returns the chaos twin's
        outcome dict; raises :class:`ChaosInvariantError` on divergence.
        """
        from repro.fuzz.artifact import canonical_fuzz_json
        from repro.fuzz.engine import run_fuzz

        generator = FaultPlanGenerator(layers=("worker",),
                                       jobs=len(self.drivers))
        plan = generator.plan(seed)
        fuzz_kwargs.setdefault("drivers", self.drivers)
        fuzz_kwargs.setdefault("strategy", self.strategy)
        fuzz_kwargs.setdefault("script", self.script)
        # A bounded twin-campaign: the invariant is about surviving the
        # fault schedule, not about fuzz coverage depth.
        fuzz_kwargs.setdefault("programs_per_round", 2)
        fuzz_kwargs.setdefault("max_rounds", 2)
        fuzz_kwargs.setdefault("dry_rounds", 1)

        store_root = os.path.join(self.workdir(), "fuzz-store")
        baseline = run_fuzz(
            orchestrator=PipelineOrchestrator(
                store=ArtifactStore(store_root), parallel=False),
            parallel=False, **fuzz_kwargs)
        chaos_orchestrator = PipelineOrchestrator(
            store=ArtifactStore(store_root), parallel=True,
            job_timeout=self.job_timeout, retries=self.retries)
        chaos = run_fuzz(orchestrator=chaos_orchestrator, parallel=True,
                         faults=self.fault_map(plan), **fuzz_kwargs)
        if canonical_fuzz_json(chaos) != canonical_fuzz_json(baseline):
            raise ChaosInvariantError(
                "SILENT WRONG ANSWER: fuzz campaign under fault plan %s "
                "diverged from its fault-free twin" % plan.to_json())
        return {"seed": seed, "plan": plan.to_dict(),
                "resilience": chaos.resilience.to_dict()
                if chaos.resilience is not None else {},
                "summary": chaos.summary()}
