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
warm the driver corpus with the plan's run faults installed.  A warm-up
that completes must match the fault-free baseline byte for byte
(``canonical_json``); one that raises must leave a
:class:`~repro.faults.report.FaultRecord` behind.  Anything else raises
:class:`ChaosInvariantError` -- the campaign itself is the assertion.
A run fault fires only when its target driver computes; one whose target
loaded intact from the store (or that an earlier fault on the same driver
shadows) is listed in ``skipped_run_faults``, so a schedule that
exercised less than its plan says is visible as such.

``fuzz_invariant`` runs the same bargain through the differential
fuzzer: a seeded fuzz campaign executed over a store vandalized by a
store-fault schedule must produce ``canonical_fuzz_json`` bytes
identical to its fault-free twin.
"""

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.faults.inject import corrupt_store_entry
from repro.faults.plan import FaultPlan, FaultPlanGenerator
from repro.pipeline.artifact import canonical_json
from repro.pipeline.orchestrator import PipelineOrchestrator, store_key
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
    #: run-fault specs that never fired: their target loaded from the
    #: store (or never ran), or an earlier fault on it shadowed them
    skipped_run_faults: list = field(default_factory=list)

    def to_dict(self):
        return {"seed": self.seed, "plan": self.plan,
                "verdict": self.verdict, "error": self.error,
                "fault_records": list(self.fault_records),
                "resilience": dict(self.resilience),
                "store_faults": list(self.store_faults),
                "skipped_run_faults": list(self.skipped_run_faults)}


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
                "quarantined": sum(o.resilience.get("quarantined", 0)
                                   for o in self.outcomes),
                "recovered_tmp": sum(o.resilience.get("recovered_tmp", 0)
                                     for o in self.outcomes),
                "skipped_run_faults": sum(len(o.skipped_run_faults)
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
                 generator=None, workdir=None):
        from repro.drivers import DRIVERS

        self.drivers = tuple(sorted(DRIVERS)) if drivers is None \
            else tuple(drivers)
        self.strategy = strategy
        self.script = script
        self.generator = generator or FaultPlanGenerator(
            jobs=len(self.drivers))
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
                store=ArtifactStore(self._pristine_root))
            artifacts = orchestrator.warm(self.drivers, self.strategy,
                                          self.script)
            self._baseline = {name: canonical_json(artifacts[name])
                              for name in self.drivers}
        return self._baseline

    # ------------------------------------------------------------------

    def fault_map(self, plan):
        """Resolve a plan's run faults to driver names (first fault per
        driver wins; targets wrap around the sorted corpus)."""
        mapping = {}
        for spec in plan.layer("run"):
            mapping.setdefault(self._target(spec), spec)
        return mapping

    def _target(self, spec):
        return self.drivers[spec.target % len(self.drivers)]

    def _vandalize(self, store, faults):
        """Apply store-layer ``faults`` to ``store``, each to its target
        driver's entry; returns the records of the ones that landed."""
        applied = []
        for spec in faults:
            key = store_key(self._target(spec), self.strategy, self.script)
            record = corrupt_store_entry(store, spec, key)
            if record is not None:
                applied.append(record)
        return applied

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
        applied = self._vandalize(store, store_faults)

        orchestrator = PipelineOrchestrator(store=store)
        outcome = ChaosOutcome(seed=plan.seed, plan=plan.to_dict(),
                               verdict="identical",
                               store_faults=applied)
        faults = self.fault_map(plan)
        try:
            artifacts = orchestrator.warm(self.drivers, self.strategy,
                                          self.script, faults=faults)
        except ReproError as exc:
            report = orchestrator.last_resilience
            records = report.fault_records if report is not None else []
            if not records:
                raise ChaosInvariantError(
                    "schedule seed=%d failed without a classified fault "
                    "record: %s: %s (plan %s)"
                    % (plan.seed, type(exc).__name__, exc,
                       plan.to_json()))
            for record in records:
                if record.layer == "run":
                    record.seed = plan.seed
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
            # A fault fires only as its driver's installed fault, and
            # only when that driver computed.
            fired = {driver: spec for driver, spec in faults.items()
                     if driver in report.computed}
            outcome.skipped_run_faults = [
                spec.to_dict() for spec in plan.layer("run")
                if fired.get(self._target(spec)) is not spec]
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

        Runs one small seeded fuzz campaign fault-free, then again over a
        copy of its warm store vandalized by the store-fault schedule for
        ``seed`` (so the faults land on the artifacts the fuzz columns
        load); the two campaigns must be canonically byte-identical, and
        at least one store fault must have landed.  Returns the chaos
        twin's outcome dict; raises :class:`ChaosInvariantError` on
        divergence or on a schedule that vandalized nothing.
        """
        from repro.fuzz.artifact import canonical_fuzz_json
        from repro.fuzz.engine import run_fuzz

        generator = FaultPlanGenerator(layers=("store",),
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
                store=ArtifactStore(store_root)), **fuzz_kwargs)
        twin_root = tempfile.mkdtemp(prefix="fuzz-seed%d-" % seed,
                                     dir=self.workdir())
        shutil.copytree(store_root, twin_root, dirs_exist_ok=True)
        twin_store = ArtifactStore(twin_root)
        applied = self._vandalize(twin_store, plan.layer("store"))
        if not applied:
            raise ChaosInvariantError(
                "vacuous fuzz composition: fault plan %s vandalized no "
                "store entry" % plan.to_json())
        chaos = run_fuzz(
            orchestrator=PipelineOrchestrator(store=twin_store),
            **fuzz_kwargs)
        if canonical_fuzz_json(chaos) != canonical_fuzz_json(baseline):
            raise ChaosInvariantError(
                "SILENT WRONG ANSWER: fuzz campaign under fault plan %s "
                "diverged from its fault-free twin" % plan.to_json())
        return {"seed": seed, "plan": plan.to_dict(),
                "store_faults": applied,
                "quarantined": twin_store.counters()["quarantined"],
                "summary": chaos.summary()}
