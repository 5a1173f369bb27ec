"""Benchmark gate: the differential fuzzer and the soak engine.

Two experiments:

* **bounded fuzz campaign** -- the default corpus (4 drivers x 4 target
  OSes) under a fixed seed and a small round budget.  The gate is the
  acceptance bar: the campaign completes with **zero unexplained
  divergences** (the only non-matching cells are the verified-unsupported
  DMA-on-ucsim ones, plus role-gated skips), and the canonical serialized
  campaign is byte-deterministic -- the persisted store key replays it;
* **soak** -- sustained saturation traffic per driver on both execution
  backends; every soaked step must be divergence-free and every cell
  must move packets.
"""

from repro.fuzz import (FuzzConfig, FuzzEngine, canonical_fuzz_json,
                        fuzz_key, run_soak, save_fuzz_result)

#: The bounded default campaign: every driver, every target OS, a fixed
#: seed and a round budget sized for CI (~30s serial on one core).
BOUNDED = dict(base_seed=0xC0FFEE, programs_per_round=3, max_rounds=5,
               dry_rounds=2)


def test_bounded_fuzz_campaign(cache):
    """4 drivers x 4 OSes under the fixed default seed: zero unexplained
    divergences, persisted for replay."""
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

    store = cache.store
    if store:
        assert save_fuzz_result(store, result) == fuzz_key(config)

    # the determinism bar: re-running the identical campaign serializes
    # byte-identically (the canonical form drops the wall clock)
    again = FuzzEngine(orchestrator=cache, config=FuzzConfig(**BOUNDED)) \
        .run()
    assert canonical_fuzz_json(again) == canonical_fuzz_json(result)


def test_soak_divergence_free_and_moves_packets(cache):
    """Sustained saturation per driver x backend: every step stays
    divergence-free and every cell moves packets."""
    soak = run_soak(orchestrator=cache)

    assert soak["totals"]["divergences"] == 0
    assert soak["totals"]["packets"] > 0
    for driver, backends in sorted(soak["drivers"].items()):
        for backend, record in sorted(backends.items()):
            assert record["divergence_free_steps"] == record["steps"], \
                "%s/%s soaked dirty" % (driver, backend)
            assert record["packets"] > 0
