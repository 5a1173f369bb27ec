"""The fault-injection plane: plans, supervised pool, chaos invariant.

Three layers under test.  The *plan* layer must be a pure function of
its seed (same discipline as the fuzz program generator: the plan JSON is
the replay key).  The *pool* layer must absorb exactly the hostile
behaviors the plans describe -- killed, hung and garbage-spewing workers
-- through retry, timeout and validation, without ever discarding a
healthy job's result.  And the *campaign* layer must hold the robustness
invariant end to end: every fault schedule ends byte-identical to the
fault-free baseline or fails loudly with a classified, replayable fault
record.
"""

import json
import os
import time

import pytest

from repro.errors import GuestOsError, ReproError, SolverError
from repro.faults import (FaultPlan, FaultPlanGenerator, FaultRecord,
                          FaultSpec, ResilienceReport)
from repro.faults.campaign import ChaosCampaign
from repro.faults.inject import maybe_raise_run_fault
from repro.faults.plan import PERSISTENT
from repro.pipeline import pool as pool_module
from repro.pipeline.pool import (SupervisedPool, backoff_delay,
                                 default_retries, default_timeout)

# -- toy workers (top-level: spawn children must import them) -----------

def _double_worker(job, fault=None):
    name, value = job
    if name == "boom":
        raise ValueError("kapow")
    return json.dumps({"name": name, "value": value * 2,
                       "pid": os.getpid()})


def _marker_worker(job, fault=None):
    """Like :func:`_double_worker`, but job ``e`` writes the marker file
    and job ``slow`` waits for it (at most 30 s), replying whether it
    appeared."""
    name, value, marker = job
    reply = {"name": name, "value": value * 2, "pid": os.getpid()}
    if name == "e":
        open(marker, "w").close()
    if name == "slow":
        deadline = time.monotonic() + 30
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        reply["saw_marker"] = os.path.exists(marker)
    return json.dumps(reply)


def _refuse_start(process):
    raise OSError("process creation refused")


def _validate_json(payload):
    return json.loads(payload)


# ----------------------------------------------------------------------

class TestFaultPlans:
    def test_same_seed_same_bytes(self):
        first = FaultPlanGenerator().plan(1234)
        second = FaultPlanGenerator().plan(1234)
        assert first.to_json() == second.to_json()
        assert FaultPlanGenerator().plan(1235).to_json() \
            != first.to_json()

    def test_plans_sequence_is_deterministic(self):
        generator = FaultPlanGenerator(max_faults=2)
        batch = generator.plans(7, 5)
        assert [plan.seed for plan in batch] == [7, 8, 9, 10, 11]
        again = FaultPlanGenerator(max_faults=2).plans(7, 5)
        assert [p.to_json() for p in batch] \
            == [p.to_json() for p in again]

    def test_round_trip(self):
        plan = FaultPlanGenerator().plan(99)
        assert FaultPlan.from_json(plan.to_json()).to_json() \
            == plan.to_json()

    def test_layer_filter(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(layer="worker", kind="kill"),
            FaultSpec(layer="store", kind="truncate"),
            FaultSpec(layer="run", kind="solver_budget"),
        ))
        assert [f.kind for f in plan.layer("store")] == ["truncate"]
        assert len(plan.layer("worker")) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(layer="disk", kind="truncate")
        with pytest.raises(ValueError):
            FaultSpec(layer="worker", kind="truncate")

    def test_fires_on_attempts(self):
        transient = FaultSpec(layer="worker", kind="kill", attempts=2)
        assert transient.fires_on(1) and transient.fires_on(2)
        assert not transient.fires_on(3)
        persistent = FaultSpec(layer="run", kind="guest_os_error",
                               attempts=PERSISTENT)
        assert persistent.fires_on(50)

    def test_worker_faults_always_transient(self):
        # the generator never makes a worker fault the retry budget
        # cannot heal -- persistence is reserved for run faults
        generator = FaultPlanGenerator(max_faults=3)
        for seed in range(60):
            for spec in generator.plan(seed).faults:
                if spec.layer == "worker":
                    assert spec.attempts <= 2


class TestRunFaultInjection:
    def test_guest_os_error_at_matching_stage(self):
        spec = FaultSpec(layer="run", kind="guest_os_error",
                         params={"stage": "revnic"})
        with pytest.raises(GuestOsError):
            maybe_raise_run_fault(spec, "revnic")
        maybe_raise_run_fault(spec, "synthesize")   # no-op: wrong stage

    def test_solver_budget(self):
        spec = FaultSpec(layer="run", kind="solver_budget")
        with pytest.raises(SolverError):
            maybe_raise_run_fault(spec, "revnic")

    def test_dict_form_crosses_process_boundary(self):
        spec = FaultSpec(layer="run", kind="guest_os_error")
        with pytest.raises(GuestOsError):
            maybe_raise_run_fault(spec.to_dict(), "revnic")

    def test_non_run_layers_never_raise(self):
        maybe_raise_run_fault(FaultSpec(layer="worker", kind="kill"),
                              "revnic")
        maybe_raise_run_fault(None, "revnic")


class TestSupervisedPool:
    JOBS = [("a", 1), ("b", 2), ("c", 3)]
    LABELS = ["a", "b", "c"]

    def run(self, jobs=None, labels=None, faults=None, timeout=60,
            retries=2, max_workers=2, worker=_double_worker):
        """Run a batch; ``faults`` is keyed by job index for brevity."""
        report = ResilienceReport()
        labels = labels or self.LABELS
        with SupervisedPool(worker, workers=max_workers,
                            timeout=timeout, retries=retries) as pool:
            results, failures = pool.run(
                jobs or self.JOBS, labels=labels,
                faults={labels[i]: spec
                        for i, spec in (faults or {}).items()},
                validate=_validate_json, report=report)
        self.pool = pool
        return results, failures, report

    def test_plain_run_completes_everything(self):
        results, failures, report = self.run()
        assert sorted(results) == [0, 1, 2] and not failures
        assert results[1]["name"] == "b" and results[1]["value"] == 4
        assert all(entry["outcome"] == "pool"
                   for entry in report.jobs.values())

    def test_kill_fault_healed_by_retry(self):
        results, failures, report = self.run(
            faults={0: FaultSpec(layer="worker", kind="kill")})
        assert sorted(results) == [0, 1, 2] and not failures
        assert report.worker_crashes == 1 and report.retries == 1
        assert report.jobs["a"]["attempts"] == 2

    def test_hang_fault_killed_by_timeout(self):
        results, failures, report = self.run(
            faults={1: FaultSpec(layer="worker", kind="hang",
                                 params={"seconds": 600})},
            timeout=5, retries=1, max_workers=3)
        assert sorted(results) == [0, 1, 2] and not failures
        assert report.timeouts == 1

    def test_persistent_garbage_fails_only_its_job(self):
        results, failures, report = self.run(
            faults={2: FaultSpec(layer="worker", kind="garbage",
                                 attempts=PERSISTENT)},
            retries=1)
        # the healthy jobs' results survive the bad job's failure
        assert sorted(results) == [0, 1]
        assert failures == {2: "garbage"}
        assert report.garbage_results == 2       # initial try + 1 retry
        assert report.jobs["c"]["outcome"] == "pool-failed:garbage"

    def test_worker_exception_is_classified(self):
        results, failures, report = self.run(
            jobs=[("a", 1), ("boom", 0)], labels=["a", "boom"],
            retries=1)
        assert sorted(results) == [0]
        assert failures == {1: "error"}
        assert report.run_faults == 2
        assert any("ValueError: kapow" in event
                   for event in report.jobs["boom"]["events"])

    def test_kill_with_queued_jobs_respawns_and_keeps_results(self):
        # the worker running job 0 dies while jobs are still queued
        jobs = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
        labels = ["a", "b", "c", "d"]
        results, failures, report = self.run(
            jobs=jobs, labels=labels,
            faults={0: FaultSpec(layer="worker", kind="kill")})
        assert not failures
        assert [results[i]["value"] for i in range(4)] == [2, 4, 6, 8]
        assert report.worker_crashes == 1 and report.retries == 1
        assert report.jobs["a"]["attempts"] == 2
        assert all(entry["outcome"] == "pool"
                   for entry in report.jobs.values())
        # five dispatches: four jobs plus the retry on a respawned worker
        assert sum(entry["attempts"]
                   for entry in report.jobs.values()) == 5

    def test_spawn_failure_hands_every_job_back(self, monkeypatch):
        # The path the orchestrator, matrix and fuzz fallbacks rely on:
        # an environment that cannot start processes at all.
        monkeypatch.setattr(pool_module._CONTEXT.Process, "start",
                            _refuse_start)
        started = time.monotonic()
        results, failures, report = self.run()
        assert time.monotonic() - started < 30
        assert not results
        assert failures == {0: "unavailable", 1: "unavailable",
                            2: "unavailable"}
        assert [d["stage"] for d in report.degradations] == ["pool"]
        assert "process creation refused" \
            in report.degradations[0]["reason"]

    def test_slow_job_does_not_hold_the_batch(self, tmp_path):
        # the slow job blocks its worker until the last fast job has run,
        # so the other worker must take every fast job from the shared
        # queue; a pool that held the batch behind it would time out
        marker = str(tmp_path / "e-ran")
        labels = ["slow", "b", "c", "d", "e"]
        jobs = [(label, value, marker)
                for value, label in enumerate(labels, 1)]
        results, failures, _report = self.run(jobs=jobs, labels=labels,
                                              worker=_marker_worker)
        assert not failures and sorted(results) == [0, 1, 2, 3, 4]
        assert results[0]["saw_marker"], \
            "job e never ran while the slow job held its worker"
        assert results[4]["name"] == "e" and results[4]["value"] == 10
        slow_pid = results[0]["pid"]
        assert all(results[i]["pid"] != slow_pid for i in range(1, 5))

    def test_backoff_is_deterministic_and_bounded(self):
        delays = [backoff_delay(n) for n in range(1, 10)]
        assert delays == sorted(delays)
        assert delays[0] == 0.05 and max(delays) == 1.0
        assert delays == [backoff_delay(n) for n in range(1, 10)]

    def test_env_budgets(self, monkeypatch):
        monkeypatch.setenv("REVNIC_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("REVNIC_JOB_RETRIES", "7")
        assert default_timeout() == 12.5
        assert default_retries() == 7
        monkeypatch.setenv("REVNIC_JOB_TIMEOUT", "bogus")
        monkeypatch.setenv("REVNIC_JOB_RETRIES", "-3")
        assert default_timeout() == 300.0
        assert default_retries() == 0


class TestResilienceReport:
    def test_retry_accounting(self):
        report = ResilienceReport()
        report.record_attempt("job", 1)
        assert report.retries == 0
        report.record_attempt("job", 2, event="crash")
        assert report.retries == 1
        assert report.jobs["job"]["attempts"] == 2
        assert report.jobs["job"]["events"] == ["crash"]

    def test_merge_and_healed(self):
        first = ResilienceReport(timeouts=1)
        first.record_degradation("pool", "unavailable")
        second = ResilienceReport(retries=2)
        second.record_fault(FaultRecord(layer="run", kind="GuestOsError",
                                        job="x"))
        first.merge(second)
        assert first.timeouts == 1 and first.retries == 2
        assert len(first.degradations) == 1
        assert not first.healed()

    def test_to_dict_round_trips_through_json(self):
        # the fuzz artifact embeds the report's dict
        report = ResilienceReport(timeouts=1)
        report.record_attempt("job", 2, event="crash")
        report.record_fault(FaultRecord(layer="run", kind="GuestOsError",
                                        job="job"))
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


class TestOrchestratorUnderFault:
    """The pipeline survives its own fault plane (tier-1 chaos slice:
    two quick-script drivers, handcrafted plans, every layer)."""

    DRIVERS = ("rtl8029", "smc91c111")

    @pytest.fixture()
    def campaign(self):
        campaign = ChaosCampaign(drivers=self.DRIVERS, script="quick",
                                 job_timeout=60.0, retries=2)
        yield campaign
        campaign.cleanup()

    def test_worker_kill_heals_byte_identical(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=1, faults=(
            FaultSpec(layer="worker", kind="kill", target=0),)))
        assert outcome.verdict == "identical"
        assert outcome.resilience["worker_crashes"] >= 1
        assert outcome.resilience["retries"] >= 1
        # the faulted job healed in the pool; the healthy job's pooled
        # result was never recomputed serially
        assert outcome.resilience["jobs"]["rtl8029"]["outcome"] == "pool"
        assert outcome.resilience["jobs"]["smc91c111"]["outcome"] \
            == "pool"

    def test_store_corruption_heals_byte_identical(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=2, faults=(
            FaultSpec(layer="store", kind="truncate", target=0,
                      params={"keep_fraction": 0.4}),
            FaultSpec(layer="store", kind="orphan_tmp", target=1,
                      params={"salt": 7}),)))
        assert outcome.verdict == "identical"
        assert outcome.resilience["quarantined"] >= 1
        assert outcome.resilience["recovered_tmp"] >= 1

    def test_persistent_run_fault_fails_loudly(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=3, faults=(
            FaultSpec(layer="run", kind="guest_os_error", target=1,
                      attempts=PERSISTENT),)))
        assert outcome.verdict == "faulted"
        assert "GuestOsError" in outcome.error
        [record] = [r for r in outcome.fault_records
                    if r["layer"] == "run"]
        assert record["job"] == "smc91c111"
        assert record["attempts"] >= 1
        # the healthy driver still completed despite the loud failure
        assert outcome.resilience["jobs"]["rtl8029"]["outcome"] in (
            "pool", "serial-fallback")

    def test_transient_run_fault_heals(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=4, faults=(
            FaultSpec(layer="run", kind="solver_budget", target=0,
                      attempts=1),)))
        assert outcome.verdict == "identical"
        assert outcome.resilience["retries"] >= 1

    def test_unclassified_failure_breaks_the_invariant(self, campaign,
                                                       monkeypatch):
        # a ReproError with no fault record behind it is exactly the
        # silent-ish failure the campaign must refuse to bless
        from repro.faults import campaign as campaign_module

        class _Broken:
            last_resilience = None

            def __init__(self, **kwargs):
                pass

            def warm(self, *args, **kwargs):
                raise ReproError("undocumented explosion")

        campaign.baseline()
        monkeypatch.setattr(campaign_module, "PipelineOrchestrator",
                            _Broken)
        with pytest.raises(campaign_module.ChaosInvariantError):
            campaign.run_schedule(FaultPlan(seed=5, faults=(
                FaultSpec(layer="worker", kind="kill"),)))

    def test_fuzz_composition_is_byte_identical(self, campaign):
        outcome = campaign.fuzz_invariant(
            42, programs_per_round=1, max_rounds=1, dry_rounds=1,
            os_names=("winsim",))
        assert outcome["plan"]["faults"]
        assert outcome["summary"]["runs"] > 0
