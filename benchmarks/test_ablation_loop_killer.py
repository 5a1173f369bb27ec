"""Ablation bench: the polling-loop killer (DESIGN.md ablation).

Without killing states that re-execute polling-loop iterations, symbolic
execution floods the scheduler with near-identical states (paper section
3.2).  This test compares state churn with the killer on vs (effectively)
off.
"""

from repro.drivers import build_driver, device_class
from repro.revnic import RevNic, RevNicConfig
from repro.revnic.exerciser import quick_script


def explore(loop_kill_threshold):
    image = build_driver("rtl8029")
    config = RevNicConfig(driver_name="rtl8029",
                          pci=device_class("rtl8029").PCI,
                          loop_kill_threshold=loop_kill_threshold,
                          max_blocks_per_phase=700)
    engine = RevNic(image, config, script=quick_script())
    result = engine.run()
    return result


def test_loop_killer_bounds_state_growth():
    with_killer = explore(loop_kill_threshold=8)
    without_killer = explore(loop_kill_threshold=10_000)
    blocks_with = with_killer.stats["blocks_executed"]
    blocks_without = without_killer.stats["blocks_executed"]
    print("\nblocks: killer=%d, no-killer=%d; coverage: %.1f%% vs %.1f%%"
          % (blocks_with, blocks_without,
             100 * with_killer.coverage_fraction,
             100 * without_killer.coverage_fraction))
    # Same budget: with the killer, coverage must not be worse -- the
    # killed states were re-executing already-covered loop bodies.
    assert with_killer.coverage_fraction >= \
        without_killer.coverage_fraction - 0.02
