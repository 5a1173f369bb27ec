"""Benchmark gate: the differential fuzzer and the soak engine.

Two experiments, both landing under ``fuzz_soak`` in
``BENCH_pipeline.json``:

* **bounded fuzz campaign** -- the default corpus (4 drivers x 4 target
  OSes) under a fixed seed and a small round budget.  The gate is the
  acceptance bar: the campaign completes with **zero unexplained
  divergences** (the only non-matching cells are the verified-unsupported
  DMA-on-ucsim ones, plus role-gated skips), and the canonical serialized
  campaign is byte-deterministic -- the recorded store key replays it;
* **soak** -- sustained saturation traffic per driver on both execution
  backends, recording packets/sec and divergence-free step counts; every
  soaked step must be divergence-free.

``benchmarks/BENCH_pipeline.baseline.json`` carries the committed
baseline for trajectory tracking.
"""

from repro.fuzz import (FuzzConfig, FuzzEngine, canonical_fuzz_json,
                        fuzz_key, run_soak, save_fuzz_result)

from conftest import update_bench


#: Accumulated across the tests in this module; merged into the bench
#: report as each test completes, so partial runs still record.
_RECORD = {}

#: The bounded default campaign: every driver, every target OS, a fixed
#: seed and a round budget sized for CI (~30s serial on one core).
BOUNDED = dict(base_seed=0xC0FFEE, programs_per_round=3, max_rounds=5,
               dry_rounds=2)


def test_bounded_fuzz_campaign(cache):
    """4 drivers x 4 OSes under the fixed default seed: zero unexplained
    divergences, recorded and persisted for replay."""
    config = FuzzConfig(**BOUNDED)
    result = FuzzEngine(orchestrator=cache, config=config).run()

    unexplained = result.unexplained()
    assert unexplained == [], \
        "unexplained fuzz divergences: %r" % (
            [(r.driver, r.target_os, r.program_name, r.verdict)
             for r in unexplained],)
    summary = result.summary()
    assert summary["matched"] > 0
    assert summary["divergent"] == 0
    assert summary["coverage"] > 0
    # every non-match is the verified-unsupported ucsim/DMA cell
    for run in result.runs:
        if run.verdict == "unsupported":
            assert run.expected == "unsupported", \
                "%s/%s unsupported but equivalence expected" \
                % (run.driver, run.target_os)

    record = {"base_seed": BOUNDED["base_seed"], "summary": summary}
    store = cache.store
    if store:
        record["store_key"] = save_fuzz_result(store, result)
        assert record["store_key"] == fuzz_key(config)
    _RECORD["fuzz"] = record
    update_bench("fuzz_soak", _RECORD)

    # the determinism bar: re-running the identical campaign serializes
    # byte-identically (wall-clock and pool mode scrubbed)
    again = FuzzEngine(orchestrator=cache, config=FuzzConfig(**BOUNDED)) \
        .run()
    assert canonical_fuzz_json(again) == canonical_fuzz_json(result)


def test_soak_packets_per_second(cache):
    """Sustained saturation per driver x backend: every step stays
    divergence-free, and the throughput lands in the bench report."""
    soak = run_soak(orchestrator=cache)

    assert soak["totals"]["divergences"] == 0
    assert soak["totals"]["packets"] > 0
    assert soak["totals"]["packets_per_sec"] > 0
    for driver, backends in sorted(soak["drivers"].items()):
        for backend, record in sorted(backends.items()):
            assert record["divergence_free_steps"] == record["steps"], \
                "%s/%s soaked dirty" % (driver, backend)
            assert record["packets_per_sec"] > 0

    _RECORD["soak"] = soak
    update_bench("fuzz_soak", _RECORD)
