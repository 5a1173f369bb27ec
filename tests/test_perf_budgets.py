"""Deterministic perf-regression budgets for the symbolic pipeline.

Wall-clock assertions are flaky on shared CI machines, so the perf
trajectory is guarded by *counter* budgets instead: solver queries, actual
model searches (cache/fast-path misses), compiled-evaluation node visits,
and blocks executed for the ``rtl8139`` run -- the heaviest driver, where
PR 2's incremental-solving work concentrated.  The budgets carry ~50%
headroom over the measured values, so they only trip on algorithmic
blow-ups (a regression to per-query re-solving would exceed them by an
order of magnitude), not on noise.

Measured values (budgets unchanged since they were set):
queries=954 solves=378 node_visits=18.99M blocks=2087.
"""

from repro.eval.runner import get_cache

BUDGETS = {
    "solver_queries": 1700,
    "solver_comp_solves": 700,
    "eval_node_visits": 32_000_000,
    "blocks_executed": 3500,
    "forks": 450,
}


def test_rtl8139_counter_budgets():
    stats = get_cache().run("rtl8139").stats
    for counter, budget in BUDGETS.items():
        assert stats[counter] <= budget, (
            "%s blew its budget: %d > %d -- the incremental solving layer "
            "regressed (see DESIGN.md)" % (counter, stats[counter], budget))


def test_rtl8139_caching_is_effective():
    """Most feasibility work must be absorbed by the witness fast path and
    the model cache; ground-truth searches should stay a minority."""
    stats = get_cache().run("rtl8139").stats
    absorbed = stats["solver_fast_path_hits"] + stats["solver_cache_hits"]
    assert absorbed >= stats["solver_comp_solves"], stats


def test_counters_exported_for_all_drivers():
    from repro.drivers import DRIVERS

    for name in sorted(DRIVERS):
        stats = get_cache().run(name).stats
        for counter in BUDGETS:
            assert counter in stats
        assert stats["eval_node_visits"] > 0
