"""The fault-injection plane: plans, resilience accounting, chaos invariant.

Two layers under test.  The *plan* layer must be a pure function of its
seed (same discipline as the fuzz program generator: the plan JSON is
the replay key).  And the *campaign* layer must hold the robustness
invariant end to end: every fault schedule ends byte-identical to the
fault-free baseline or fails loudly with a classified, replayable fault
record.
"""

import json

import pytest

from repro.errors import GuestOsError, ReproError, SolverError
from repro.faults import (FaultPlan, FaultPlanGenerator, FaultRecord,
                          FaultSpec, ResilienceReport)
from repro.faults.campaign import ChaosCampaign, ChaosReport
from repro.faults.inject import maybe_raise_run_fault
from repro.pipeline import ArtifactStore, PipelineOrchestrator
from repro.pipeline.store import unframe_entry


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
            FaultSpec(layer="store", kind="truncate"),
            FaultSpec(layer="run", kind="solver_budget"),
            FaultSpec(layer="store", kind="bitflip"),
        ))
        assert [f.kind for f in plan.layer("store")] \
            == ["truncate", "bitflip"]
        assert len(plan.layer("run")) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(layer="disk", kind="truncate")
        with pytest.raises(ValueError):
            FaultSpec(layer="store", kind="guest_os_error")
        with pytest.raises(ValueError):
            FaultSpec(layer="worker", kind="kill")


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
        maybe_raise_run_fault(FaultSpec(layer="store", kind="truncate"),
                              "revnic")
        maybe_raise_run_fault(None, "revnic")


class TestResilienceReport:
    def test_attempt_accounting(self):
        # one attempt per warm-up a job runs in; events are kept in order
        report = ResilienceReport()
        report.record_attempt("job")
        report.record_attempt("job", event="GuestOsError: boom")
        report.record_outcome("job", "failed")
        assert report.jobs["job"] == {"attempts": 2, "outcome": "failed",
                                      "events": ["GuestOsError: boom"]}

    def test_to_dict_round_trips_through_json(self):
        # the fuzz artifact embeds the report's dict
        report = ResilienceReport(quarantined=1)
        report.record_attempt("job", event="crash")
        report.record_fault(FaultRecord(layer="run", kind="GuestOsError",
                                        job="job"))
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


class TestOrchestratorUnderFault:
    """The pipeline survives its own fault plane (tier-1 chaos slice:
    two quick-script drivers, handcrafted plans, both layers)."""

    DRIVERS = ("rtl8029", "smc91c111")

    @pytest.fixture()
    def campaign(self):
        campaign = ChaosCampaign(drivers=self.DRIVERS, script="quick")
        yield campaign
        campaign.cleanup()

    def test_store_corruption_heals_byte_identical(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=2, faults=(
            FaultSpec(layer="store", kind="truncate", target=0,
                      params={"keep_fraction": 0.4}),
            FaultSpec(layer="store", kind="orphan_tmp", target=1,
                      params={"salt": 7}),)))
        assert outcome.verdict == "identical"
        assert outcome.resilience["quarantined"] >= 1
        assert outcome.resilience["recovered_tmp"] >= 1

    def test_trace_section_bitflip_heals_byte_identical(self, campaign):
        # The trace leads every entry, so a small offset lands in it: the
        # section load verifies but never parses.  The flip is found at
        # load, never when the campaign walks the trace.
        campaign.baseline()
        pristine = ArtifactStore(campaign._pristine_root)
        first = pristine.keys()[0]
        with open(pristine.path_for(first), "rb") as handle:
            _head, meta = unframe_entry(handle.read())
        outcome = campaign.run_schedule(FaultPlan(seed=19, faults=(
            FaultSpec(layer="store", kind="bitflip", target=0,
                      params={"salt": 1234}),)))
        [applied] = outcome.store_faults
        assert applied["key"] == first
        assert applied["offset"] < meta["trace_bytes"]
        assert outcome.verdict == "identical"
        assert outcome.resilience["quarantined"] == 1

    def test_persistent_run_fault_fails_loudly(self, campaign):
        outcome = campaign.run_schedule(FaultPlan(seed=3, faults=(
            FaultSpec(layer="run", kind="guest_os_error", target=1),)))
        assert outcome.verdict == "faulted"
        assert "GuestOsError" in outcome.error
        [record] = [r for r in outcome.fault_records
                    if r["layer"] == "run"]
        assert record["job"] == "smc91c111"
        # the healthy driver before it still completed
        assert outcome.resilience["jobs"]["rtl8029"]["outcome"] == "serial"
        assert outcome.resilience["jobs"]["smc91c111"]["outcome"] \
            == "failed"

    def test_run_fault_records_carry_the_plan_seed(self, campaign):
        # the second fault on the same driver is shadowed by the first
        plan = FaultPlan(seed=11, faults=(
            FaultSpec(layer="run", kind="solver_budget", target=0),
            FaultSpec(layer="run", kind="guest_os_error", target=0)))
        outcome = campaign.run_schedule(plan)
        assert outcome.verdict == "faulted"
        assert "SolverError" in outcome.error
        assert outcome.fault_records
        assert all(r["seed"] == 11 for r in outcome.fault_records)
        assert outcome.skipped_run_faults == [plan.faults[1].to_dict()]

    def test_failed_warm_still_reports_store_deltas(self, campaign,
                                                     monkeypatch):
        # the bit-flipped entry is quarantined and its driver computes
        # into the run fault; the other driver loads from the store, so
        # its run fault is skipped
        from repro.faults import campaign as campaign_module

        campaign.baseline()
        stores = []

        def capture(root):
            store = ArtifactStore(root)
            stores.append((store, store.counters()))
            return store

        monkeypatch.setattr(campaign_module, "ArtifactStore", capture)
        plan = FaultPlan(seed=13, faults=(
            FaultSpec(layer="store", kind="bitflip", target=0,
                      params={"salt": 5}),
            FaultSpec(layer="run", kind="guest_os_error", target=0),
            FaultSpec(layer="run", kind="guest_os_error", target=1)))
        outcome = campaign.run_schedule(plan)
        assert outcome.verdict == "faulted"
        [(store, before)] = stores
        delta = store.counters()["quarantined"] - before["quarantined"]
        assert delta == 1
        assert outcome.resilience["quarantined"] == delta
        assert len(outcome.skipped_run_faults) == 1

    def test_run_faults_on_cached_drivers_are_skipped(self, campaign):
        plan = FaultPlan(seed=17, faults=(
            FaultSpec(layer="store", kind="orphan_tmp", target=0,
                      params={"salt": 3}),
            FaultSpec(layer="run", kind="guest_os_error", target=0),
            FaultSpec(layer="run", kind="solver_budget", target=1)))
        outcome = campaign.run_schedule(plan)
        assert outcome.verdict == "identical"
        assert outcome.skipped_run_faults \
            == [spec.to_dict() for spec in plan.layer("run")]
        report = ChaosReport(drivers=self.DRIVERS, strategy="coverage",
                             script="quick", outcomes=[outcome])
        assert report.summary()["skipped_run_faults"] == 2

    def test_jobs_before_a_run_fault_are_persisted(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        fault = FaultSpec(layer="run", kind="solver_budget")
        with pytest.raises(SolverError):
            PipelineOrchestrator(store=store).warm(
                self.DRIVERS, script="quick", faults={"smc91c111": fault})
        # a fresh orchestrator loads the healthy driver from disk
        reloaded = PipelineOrchestrator(store=ArtifactStore(str(tmp_path)))
        reloaded.warm(["rtl8029"], script="quick")
        assert reloaded.last_warm_mode == "cached"

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
                FaultSpec(layer="run", kind="solver_budget"),)))

    def test_fuzz_composition_is_byte_identical(self, campaign):
        outcome = campaign.fuzz_invariant(
            42, programs_per_round=1, max_rounds=1, dry_rounds=1,
            os_names=("winsim",))
        assert outcome["plan"]["faults"]
        assert {f["layer"] for f in outcome["plan"]["faults"]} \
            == {"store"}
        assert outcome["store_faults"]
        assert outcome["summary"]["runs"] > 0
