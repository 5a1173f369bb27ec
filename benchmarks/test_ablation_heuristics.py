"""Ablation bench: exploration-strategy comparison (DESIGN.md ablation).

The paper (section 3.2) claims its coverage-driven state selection "speeds
up exploration, compared to depth-first search (which can get stuck in
polling loops) or breadth-first search (which can take a long time to
complete a complex entry point)".  This test runs RevNIC under all three
strategies with the same block budget and compares final coverage.
"""

import pytest

from repro.drivers import build_driver, device_class
from repro.revnic import RevNic, RevNicConfig
from repro.revnic.exerciser import quick_script

BUDGET = 900


def explore(strategy):
    image = build_driver("rtl8029")
    config = RevNicConfig(driver_name="rtl8029",
                          pci=device_class("rtl8029").PCI,
                          strategy=strategy,
                          max_blocks_per_phase=BUDGET // 4)
    engine = RevNic(image, config, script=quick_script())
    result = engine.run()
    return result.coverage_fraction, result.stats


@pytest.mark.parametrize("strategy", ["coverage", "dfs", "bfs"])
def test_strategy(strategy):
    fraction, stats = explore(strategy)
    print("\n%s: %.1f%% coverage, %d blocks, %d solver queries"
          % (strategy, 100 * fraction, stats["blocks_executed"],
             stats["solver_queries"]))
    assert fraction > 0.20


def test_coverage_strategy_wins():
    results = {s: explore(s)[0] for s in ("coverage", "dfs", "bfs")}
    print("\nfinal coverage under equal budget:", {
        k: "%.1f%%" % (100 * v) for k, v in results.items()})
    # The paper's heuristic should match or beat both baselines under the
    # same exploration budget.
    assert results["coverage"] >= results["dfs"] - 0.02
    assert results["coverage"] >= results["bfs"] - 0.02
