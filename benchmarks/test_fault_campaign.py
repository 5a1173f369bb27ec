"""Benchmark gate: the chaos fault campaign.

Runs handcrafted fault schedules -- store corruption healed by
quarantine + recompute, orphaned and crashed publishes swept by
recovery, and a run fault that must fail loudly -- and checks the
absorbed-fault counters each schedule leaves in its resilience report.
The schedules are explicit rather than generator-drawn so the test
exercises every fault layer on every run, deterministically.

The gate is the robustness acceptance bar itself: every schedule ends
loud-or-identical (:class:`ChaosInvariantError` otherwise fails the
test), absorbed faults show up in the resilience report, and a failing
job leaves the healthy jobs before it computed.
"""

from repro.faults.campaign import ChaosCampaign
from repro.faults.plan import FaultPlan, FaultSpec


#: Two quick-script drivers keep the cold recomputes affordable.
DRIVERS = ("rtl8029", "smc91c111")

#: Two store schedules and one run schedule, every parameter pinned.
PLANS = (
    FaultPlan(seed=101, faults=(
        FaultSpec(layer="store", kind="bitflip", target=1,
                  params={"salt": 0x5EED}),
        FaultSpec(layer="store", kind="orphan_tmp", target=0,
                  params={"salt": 0xCAFE}),)),
    FaultPlan(seed=103, faults=(
        FaultSpec(layer="store", kind="truncate", target=0,
                  params={"keep_fraction": 0.5}),
        FaultSpec(layer="store", kind="partial_publish", target=1,
                  params={"salt": 0xBEEF}),)),
    FaultPlan(seed=104, faults=(
        FaultSpec(layer="run", kind="guest_os_error", target=1),)),
)


def test_fault_campaign_heals_or_fails_loudly():
    """Every schedule ends loud-or-identical, and each absorbed fault is
    counted in its schedule's resilience report."""
    campaign = ChaosCampaign(drivers=DRIVERS, script="quick")
    try:
        report = campaign.run(plans=list(PLANS))
    finally:
        campaign.cleanup()
    summary = report.summary()
    outcomes = {o.seed: o for o in report.outcomes}

    # the invariant held on every schedule (run_schedule raises
    # ChaosInvariantError otherwise); the split is exactly as planned
    assert summary["schedules"] == len(PLANS)
    assert summary["identical"] == 2
    assert summary["faulted"] == 1

    # bit rot: quarantined (never trusted) and recomputed
    # byte-identically; the orphaned temp file swept
    flipped = outcomes[101]
    assert flipped.resilience["quarantined"] >= 1
    assert flipped.resilience["recovered_tmp"] >= 1

    # store corruption: quarantined, crashed publish swept, corrupted
    # entries recomputed byte-identically
    corrupt = outcomes[103]
    assert corrupt.resilience["quarantined"] >= 1
    assert corrupt.resilience["recovered_tmp"] >= 1

    # run fault: a loud, classified, replayable failure
    faulted = outcomes[104]
    assert faulted.verdict == "faulted"
    assert faulted.fault_records
    record = faulted.fault_records[0]
    assert record["layer"] == "run" and record["job"] == "smc91c111"
    # ...that still left the healthy driver before it computed (each job
    # persists its artifact as it finishes; the failing job runs last)
    assert faulted.resilience["computed"] == ["rtl8029", "smc91c111"]
