"""In-process pipeline orchestration.

RevNIC's evaluation runs one reverse-engineering pipeline per driver.
The orchestrator runs each pipeline at most once and persists the
serialized :class:`~repro.pipeline.artifact.RunArtifact` in the on-disk
store, so a later session loads it instead of recomputing.

Lookup order per run: in-memory (this orchestrator) -> on-disk store
(content-addressed, survives the process) -> compute in this process.
Because runs are deterministic (interned expressions, seeded solver --
see DESIGN.md), all three paths produce byte-identical canonical
artifacts; tests assert this.

:meth:`PipelineOrchestrator.warm` computes the missing drivers one
after another in this process.  The runs are independent, but process
fan-out did not pay: rtl8139 alone is about half of a cold warm-up, and
a warm matrix column is too short to amortize a spawned interpreter
(DESIGN.md has the measurements).  The warm-up records its jobs in a
:class:`~repro.faults.report.ResilienceReport`
(:attr:`PipelineOrchestrator.last_resilience`, which chaos campaigns
read); a job that fails raises its classified error after recording a
replayable :class:`~repro.faults.report.FaultRecord`, with every job
before it already computed and persisted.  The validation matrix and
the fuzzer loop over their driver columns themselves.
"""

import time

from repro.errors import ReproError
from repro.pipeline.artifact import build_artifact
from repro.pipeline.store import artifact_key, default_store


def build_config(name, strategy="coverage", script="default"):
    """The canonical :class:`RevNicConfig` for one orchestrated run."""
    from repro.drivers import device_class
    from repro.revnic import RevNicConfig

    return RevNicConfig(driver_name=name, pci=device_class(name).PCI,
                        strategy=strategy, script=script)


def execute_run(name, strategy="coverage", script="default", fault=None):
    """Run the full pipeline for one driver in this process.

    Pure producer: builds the driver image, runs RevNIC under ``config``,
    synthesizes from the captured result, and returns the
    :class:`RunArtifact` -- no singletons, no shared state.  ``fault`` is
    the run-layer fault-injection hook (:mod:`repro.faults`): a matching
    spec raises its induced, classified exception at the requested stage.
    """
    from repro.drivers import build_driver
    from repro.revnic import RevNic
    from repro.synth import synthesize

    if fault is not None:
        from repro.faults.inject import maybe_raise_run_fault
    image = build_driver(name)
    config = build_config(name, strategy, script)
    engine = RevNic(image, config)
    if fault is not None:
        maybe_raise_run_fault(fault, "revnic")
    result = engine.run()
    if fault is not None:
        maybe_raise_run_fault(fault, "synthesize")
    synthesized = synthesize(result)
    return build_artifact(config, result, synthesized)


class PipelineOrchestrator:
    """Runs driver pipelines at most once, in this process, persisting
    artifacts in the on-disk store."""

    def __init__(self, store=None, parallel=None):
        # ``parallel`` is accepted and ignored: perfbench/worker.py passes it.
        self._artifacts = {}
        #: ``store=False`` disables disk caching; ``None`` uses the
        #: default store (which the REVNIC_ARTIFACT_CACHE env controls).
        self.store = default_store() if store is None else (store or None)
        #: wall-clock of the last :meth:`warm`, and how it ran
        self.last_warm_seconds = None
        self.last_warm_mode = None
        #: the :class:`ResilienceReport` of the last :meth:`warm`
        self.last_resilience = None

    # ------------------------------------------------------------------

    def run(self, name, strategy="coverage", script="default"):
        """The :class:`RunArtifact` for one driver configuration."""
        key = (name, strategy, script)
        artifact = self._artifacts.get(key)
        if artifact is None:
            artifact = self._load_cached(*key)
        if artifact is None:
            artifact = execute_run(*key)
            self._store_artifact(key, artifact)
        self._artifacts[key] = artifact
        return artifact

    def warm(self, names=None, strategy="coverage", script="default",
             parallel=None, faults=None):
        """Materialize artifacts for ``names`` (default: all drivers),
        computing the missing ones one after another in this process.

        Returns ``{name: RunArtifact}``; :attr:`last_warm_seconds` /
        :attr:`last_warm_mode` record how the warm-up ran (printed by
        ``examples/port_all_drivers.py``) and :attr:`last_resilience`
        records what it survived.  ``faults`` maps driver name ->
        run-layer FaultSpec for chaos campaigns.  A job that fails raises
        the classified error -- after recording a replayable fault record
        and with every artifact computed before it already persisted.
        """
        # ``parallel`` is accepted and ignored: perfbench/worker.py passes it.
        from repro.drivers import DRIVERS
        from repro.faults.report import ResilienceReport

        names = sorted(DRIVERS) if names is None else list(names)
        report = ResilienceReport()
        self.last_resilience = report
        store_before = self.store.counters() if self.store else None
        try:
            self._warm_missing(names, strategy, script, report, faults)
        finally:
            # Folded even when a job fails: what the store quarantined,
            # or recovered before the failure still happened.
            if store_before is not None:
                after = self.store.counters()
                report.quarantined += after["quarantined"] \
                    - store_before["quarantined"]
                report.recovered_tmp += after["recovered"] \
                    - store_before["recovered"]
        return {name: self._artifacts[(name, strategy, script)]
                for name in names}

    def _warm_missing(self, names, strategy, script, report, faults):
        """Load what the store holds and compute the rest, recording
        each computed job in ``report``; sets :attr:`last_warm_seconds`
        and :attr:`last_warm_mode`.

        ``faults`` maps a driver name to the run-layer spec injected into
        its run.  A job that raises a :class:`ReproError` records a
        classified, replayable :class:`FaultRecord`, then re-raises: the
        jobs before it are done and persisted, the jobs after it never
        start.
        """
        from repro.faults.report import FaultRecord

        started = time.monotonic()
        faults = faults or {}
        if self.store is not None:
            # Sweep publishes crashed mid-os.replace before writing new
            # entries over the same root.
            self.store.recover()
        missing = {}
        for name in names:
            key = (name, strategy, script)
            if key in self._artifacts:
                continue
            artifact = self._load_cached(*key)
            if artifact is not None:
                self._artifacts[key] = artifact
            else:
                missing[name] = key
        for name, key in missing.items():
            fault = faults.get(name)
            report.computed.append(name)
            try:
                artifact = execute_run(*key, fault=fault)
                self._store_artifact(key, artifact)
            except ReproError as exc:
                report.record_fault(FaultRecord(
                    layer="run" if fault is not None else "job",
                    kind=type(exc).__name__, job=name, error=str(exc)))
                raise
            self._artifacts[key] = artifact
        self.last_warm_seconds = time.monotonic() - started
        self.last_warm_mode = "serial" if missing else "cached"

    def all_drivers(self):
        """Warmed artifacts for the whole corpus, in sorted driver order."""
        return list(self.warm().values())

    # ------------------------------------------------------------------

    def _load_cached(self, name, strategy, script):
        if self.store is None:
            return None
        return self.store.load(store_key(name, strategy, script))

    def _store_artifact(self, key, artifact):
        if self.store is None:
            return
        self.store.save(store_key(*key), artifact)


def store_key(name, strategy, script):
    """The artifact-store key of one driver configuration."""
    from repro.drivers import build_driver

    return artifact_key(build_driver(name),
                        build_config(name, strategy, script))


_GLOBAL_ORCHESTRATOR = None


def get_orchestrator():
    """The process-wide orchestrator (the evaluation's shared cache)."""
    global _GLOBAL_ORCHESTRATOR
    if _GLOBAL_ORCHESTRATOR is None:
        _GLOBAL_ORCHESTRATOR = PipelineOrchestrator()
    return _GLOBAL_ORCHESTRATOR
