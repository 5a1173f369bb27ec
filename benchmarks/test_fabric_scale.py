"""Benchmark gate: the fabric's batched event-driven scheduler.

Three experiments:

* **scheduler gate** -- a 16-endpoint saturation fleet on a wide-spread
  (mostly idle) schedule, batched vs the lockstep polling reference.
  Batched must poll the endpoints at most a tenth as often (a
  deterministic count), and both modes must emit byte-identical
  canonical reports;
* **determinism** -- the same seed + topology replayed across runs
  produces byte-identical canonical report bytes;
* **scale sweep** -- 16 / 64 / 256 endpoints per execution backend; every
  cell switches frames without a step error, and 16x the fleet moves more
  than twice the frames.

Fabric packets/sec is measured by ``perfbench/`` (see
``perfbench/README.md``), not here.
"""

from repro.net.fabric import (FabricRun, build_fleet, build_report,
                              build_workload, canonical_fabric_json,
                              run_fleet)


#: Fixed seed for every fabric bench: the reports are replayable records.
SEED = 0xFAB51

#: Schedule stretch for the scheduler gate: at spread 512 the fleet is
#: idle at almost every tick -- the shape event-driven scheduling is for.
GATE_SPREAD = 512

def _run(cache, plan, mode):
    """Build, boot and run the fleet; returns
    ``(canonical_report_bytes, run)``."""
    endpoints = build_fleet(plan, orchestrator=cache)
    run = FabricRun(endpoints, mode=mode)
    run.run()
    return canonical_fabric_json(build_report(plan, endpoints, run)), run


def test_batched_polls_a_tenth_of_lockstep(cache):
    plan = build_workload("saturation", 16, SEED, spread=GATE_SPREAD)
    canon_batched, batched = _run(cache, plan, "batched")
    canon_lockstep, lockstep = _run(cache, plan, "lockstep")
    assert canon_batched == canon_lockstep, \
        "scheduler modes disagree on the canonical fabric report"
    assert batched.polls * 10 <= lockstep.polls, \
        "batched scheduler polled %d times, lockstep %d" \
        % (batched.polls, lockstep.polls)


def test_report_bytes_stable_across_runs(cache):
    plan = build_workload("saturation", 16, SEED)
    canons = [canonical_fabric_json(run_fleet(plan, orchestrator=cache))
              for _ in range(3)]
    assert canons[0] == canons[1] == canons[2], \
        "canonical fabric report bytes drift across runs"


def test_scale_sweep(cache):
    frames = {}
    for backend in ("compiled", "interp"):
        for count in (16, 64, 256):
            plan = build_workload("saturation", count, SEED)
            report = run_fleet(plan, orchestrator=cache,
                               backends=(backend,))
            assert report["switch"]["frames_switched"] > 0, \
                "a %d-endpoint sweep cell switched nothing" % count
            assert report["totals"]["step_errors"] == 0
            frames[backend, count] = report["switch"]["frames_switched"]
    # Scaling sanity: 16x the fleet must move more than 2x the frames.
    for backend in ("compiled", "interp"):
        assert frames[backend, 256] > 2 * frames[backend, 16], backend
