"""Deterministic perf-regression budgets for the symbolic pipeline.

Wall-clock assertions are flaky on shared CI machines, so the perf
trajectory is guarded by *counter* budgets instead: solver queries, actual
model searches (cache/fast-path misses), compiled-program runs, node
visits and nodes lowered into programs, and blocks executed for the
``rtl8139`` run -- the heaviest driver, where the incremental-solving
work concentrated -- plus program runs for ``smc91c111``, the driver
whose solver searches ran the most programs.  The budgets carry ~50%
headroom over the measured values, so they only trip on algorithmic
blow-ups (per-query re-solving, or per-query random sampling of models,
would exceed them by an order of magnitude), not on noise.  The
``eval_nodes_lowered`` budget is tighter: re-lowering every grown slice
conjunction whole, instead of as a shared prefix plus a delta, lowers
130,499 nodes and trips it.

Measured values: rtl8139 queries=950 solves=376 program_runs=138,213
node_visits=9.15M nodes_lowered=77,041 blocks=2087 forks=261; smc91c111
program_runs=41,974.
"""

from repro.eval.runner import get_cache

BUDGETS = {
    "solver_queries": 1700,
    "solver_comp_solves": 700,
    "eval_program_runs": 172_000,
    "eval_node_visits": 32_000_000,
    "eval_nodes_lowered": 115_000,
    "blocks_executed": 3500,
    "forks": 450,
}

SMC91C111_BUDGETS = {
    "eval_program_runs": 47_000,
}


def _check_budgets(driver, budgets):
    stats = get_cache().run(driver).stats
    for counter, budget in budgets.items():
        assert stats[counter] <= budget, (
            "%s %s blew its budget: %d > %d -- the incremental solving "
            "layer regressed (see DESIGN.md)"
            % (driver, counter, stats[counter], budget))


def test_rtl8139_counter_budgets():
    _check_budgets("rtl8139", BUDGETS)


def test_smc91c111_counter_budgets():
    _check_budgets("smc91c111", SMC91C111_BUDGETS)


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
        for counter in (*BUDGETS, "solver_unknown", "solver_unsat"):
            assert counter in stats
        assert stats["eval_node_visits"] > 0
