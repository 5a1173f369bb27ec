"""Process-pool pipeline orchestration.

RevNIC's evaluation runs one reverse-engineering pipeline per driver;
the runs are independent, so the orchestrator fans them out across
``multiprocessing`` workers (spawn context: each worker is a fresh
interpreter running RevNIC + synthesis) and collects serialized
:class:`~repro.pipeline.artifact.RunArtifact` objects.  The
four-driver warm-up therefore costs roughly the slowest single driver
instead of the sum of all four -- and with a warm on-disk cache, almost
nothing.

Lookup order per run: in-memory (this orchestrator) -> on-disk store
(content-addressed, survives the process) -> compute (in a supervised
worker during :meth:`PipelineOrchestrator.warm`, inline otherwise).
Because runs are deterministic (interned expressions, seeded solver --
see DESIGN.md), all three paths produce byte-identical canonical
artifacts; tests assert this.

Every per-driver fan-out -- this warm-up, the validation matrix's
columns and the fuzzer's per-round columns -- is one method,
:meth:`PipelineOrchestrator.fan_out`: the supervised pool
(:class:`repro.pipeline.pool.SupervisedPool`: per-job timeout, bounded
retry), then **per-job** serial fallback for whatever the pool did not
finish, so one bad worker never costs healthy jobs a recompute.  Each
fan-out records how it survived in a
:class:`~repro.faults.report.ResilienceReport`; a job that fails even
serially raises its classified error after recording a replayable
:class:`~repro.faults.report.FaultRecord`.
"""

import os
import time

from repro.errors import ReproError
from repro.pipeline.artifact import build_artifact, from_json, to_json
from repro.pipeline.store import ArtifactStore, artifact_key, default_store

#: Environment variable: set to ``0`` to force serial in-process warm-up.
PARALLEL_ENV = "REVNIC_PARALLEL"


def build_config(name, strategy="coverage", script="default"):
    """The canonical :class:`RevNicConfig` for one orchestrated run."""
    from repro.drivers import device_class
    from repro.revnic import RevNicConfig

    return RevNicConfig(driver_name=name, pci=device_class(name).PCI,
                        strategy=strategy, script=script)


def execute_run(name, strategy="coverage", script="default",
                source="computed", fault=None):
    """Run the full pipeline for one driver in this process.

    Pure producer: builds the driver image, runs RevNIC under ``config``,
    synthesizes from the captured result, and returns the
    :class:`RunArtifact` -- no singletons, no shared state, safe to call
    from any worker process.  ``fault`` is the run-layer fault-injection
    hook (:mod:`repro.faults`): a matching spec raises its induced,
    classified exception at the requested stage.
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
    return build_artifact(config, result, synthesized, source=source)


def _worker(job, fault=None):
    """Supervised-pool target of :meth:`PipelineOrchestrator.warm`: one
    artifact's JSON, byte-for-byte what the parent would produce
    in-process (determinism tests hold the pipeline to that)."""
    name, strategy, script = job
    artifact = execute_run(name, strategy, script, source="worker",
                           fault=fault)
    return to_json(artifact)


def column_artifact(job, fault):
    """Worker-side prologue of a matrix or fuzz column job (``job`` as
    :meth:`PipelineOrchestrator.column_jobs` builds it): the driver's
    artifact, loaded -- or, cold, computed and persisted -- by a worker
    orchestrator over the shared store root."""
    from repro.faults.inject import maybe_raise_run_fault

    driver, strategy, script, store_root = job[:4]
    maybe_raise_run_fault(fault, "revnic")
    store = ArtifactStore(store_root) if store_root else False
    return PipelineOrchestrator(store=store, parallel=False).run(
        driver, strategy, script)


def _serial_job(stage, label, job, serial, pooled, spec, report):
    """One job of :meth:`PipelineOrchestrator.fan_out`'s serial pass; a
    job failing here has exhausted every healing layer, so it records a
    classified, replayable :class:`FaultRecord` and re-raises."""
    from repro.faults.report import FaultRecord

    if pooled:
        report.record_degradation(stage, "per-job serial fallback",
                                  job=label)
    attempt = report.jobs.get(label, {}).get("attempts", 0) + 1
    fires = spec is not None and spec.layer == "run" \
        and spec.fires_on(attempt)
    run_fault = spec if fires else None
    try:
        result = serial(job, run_fault)
    except ReproError as exc:
        report.record_attempt(label, attempt, event="serial: %s: %s"
                              % (type(exc).__name__, exc))
        report.record_outcome(label, "failed")
        report.record_fault(FaultRecord(
            layer="run" if run_fault is not None else "serial",
            kind=type(exc).__name__, job=label, error=str(exc),
            seed=spec.params.get("seed") if spec is not None else None,
            attempts=attempt))
        raise
    report.record_attempt(label, attempt)
    report.record_outcome(label, "serial-fallback" if pooled else "serial")
    return result


class PipelineOrchestrator:
    """Runs driver pipelines at most once, fanning cold runs out across
    supervised processes and persisting artifacts in the on-disk store."""

    def __init__(self, store=None, max_workers=None, parallel=None,
                 job_timeout=None, retries=None):
        self._artifacts = {}
        #: ``store=False`` disables disk caching; ``None`` uses the
        #: default store (which the REVNIC_ARTIFACT_CACHE env controls).
        self.store = default_store() if store is None else (store or None)
        self.max_workers = max_workers
        if parallel is None:
            parallel = os.environ.get(PARALLEL_ENV, "1") != "0"
        self.parallel = parallel
        #: per-job supervision budgets; ``None`` defers to the
        #: REVNIC_JOB_TIMEOUT / REVNIC_JOB_RETRIES env defaults.
        self.job_timeout = job_timeout
        self.retries = retries
        #: wall-clock of the last :meth:`warm` fan-out, and how it ran
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
        computing the missing ones in supervised parallel workers.

        Returns ``{name: RunArtifact}``; :attr:`last_warm_seconds` /
        :attr:`last_warm_mode` record how the fan-out ran (printed by
        ``examples/port_all_drivers.py``) and :attr:`last_resilience`
        records what it survived.  ``faults`` maps driver name ->
        FaultSpec for chaos campaigns.  A job that fails even its serial
        fallback raises the classified error -- after recording a
        replayable fault record and with every healthy artifact already
        persisted.
        """
        from repro.drivers import DRIVERS
        from repro.faults.report import ResilienceReport

        names = sorted(DRIVERS) if names is None else list(names)
        report = ResilienceReport()
        self.last_resilience = report
        store_before = self.store.counters() if self.store else None
        started = time.monotonic()
        if self.store is not None:
            # Sweep publishes crashed mid-os.replace before we fan out
            # new writers over the same root.
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

        def accept(payload):
            # Persist the worker's bytes as-is: re-encoding in the parent
            # would force the (lazy) trace decode and produce identical
            # JSON anyway.
            artifact = from_json(payload, source="worker")
            key = missing[artifact.name]
            if self.store is not None:
                self.store.save_json(self._disk_key(*key), payload)
            self._artifacts[key] = artifact
            return artifact

        def serial(key, fault):
            artifact = execute_run(*key, fault=fault)
            self._store_artifact(key, artifact)
            self._artifacts[key] = artifact
            return artifact

        mode = "cached"
        if missing:
            mode = self.fan_out("warm", missing, _worker, accept, serial,
                                report, parallel=parallel, faults=faults)[1]
        self.last_warm_seconds = time.monotonic() - started
        self.last_warm_mode = mode
        if store_before is not None:
            after = self.store.counters()
            report.quarantined += after["quarantined"] \
                - store_before["quarantined"]
            report.recovered_tmp += after["recovered"] \
                - store_before["recovered"]
            report.evicted += after["evicted"] - store_before["evicted"]
        return {name: self._artifacts[(name, strategy, script)]
                for name in names}

    def all_drivers(self):
        """Warmed artifacts for the whole corpus, in sorted driver order."""
        return list(self.warm().values())

    # ------------------------------------------------------------------

    def column_jobs(self, drivers, strategy, script, *args):
        """``{driver: job}`` for :func:`column_artifact` workers: each job
        is ``(driver, strategy, script, store_root) + args``."""
        store_root = self.store.root if self.store is not None else None
        return {driver: (driver, strategy, script, store_root) + args
                for driver in drivers}

    def fan_out(self, stage, jobs, worker, validate, serial, report,
                parallel=None, faults=None):
        """Run ``jobs`` (``{label: job}``) on the supervised pool, then
        serially whatever the pool did not finish.

        ``worker(job, fault)`` is the module-level pool target and
        ``validate(payload)`` turns its reply into a result (raising on
        garbage).  ``serial(job, fault)`` computes one job in this
        process; ``fault`` is the run-layer spec from ``faults`` that
        fires on that attempt, which the caller may inject or ignore.
        A serial job after an attempted pool is recorded as a ``stage``
        degradation with outcome ``"serial-fallback"``.  Returns
        ``({label: result}, mode)``, ``mode`` being ``"parallel"`` when
        the pool finished any job and ``"serial"`` otherwise.
        """
        from repro.faults.report import ResilienceReport
        from repro.pipeline.pool import SupervisedPool

        if parallel is None:
            # Fanning out only pays when there is real parallelism:
            # spawn-per-worker interpreter start-up loses on one core.
            parallel = self.parallel and (os.cpu_count() or 1) > 1
        labels = list(jobs)
        pooled = parallel and len(labels) > 1
        faults = faults or {}
        # This fan-out's own accounting, folded into ``report`` at the
        # end: serial attempt numbers continue from this pool's attempts,
        # not from earlier fan-outs sharing the same report.
        local = ResilienceReport()
        results = {}
        try:
            if pooled:
                with SupervisedPool(worker, workers=self.max_workers,
                                    timeout=self.job_timeout,
                                    retries=self.retries) as pool:
                    done, _failures = pool.run(
                        [jobs[label] for label in labels], labels=labels,
                        faults=faults, validate=validate, report=local)
                results = {labels[index]: value
                           for index, value in done.items()}
            mode = "parallel" if results else "serial"
            leftovers = [label for label in labels if label not in results]
            for label in leftovers:
                results[label] = _serial_job(
                    stage, label, jobs[label], serial, pooled,
                    faults.get(label), local)
        finally:
            report.merge(local)
        return results, mode

    def _load_cached(self, name, strategy, script):
        if self.store is None:
            return None
        return self.store.load(self._disk_key(name, strategy, script))

    def _store_artifact(self, key, artifact):
        if self.store is None:
            return
        self.store.save(self._disk_key(*key), artifact)

    def _disk_key(self, name, strategy, script):
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
