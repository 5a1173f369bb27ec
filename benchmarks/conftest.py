"""Shared fixtures for the benchmark harness.

The artifact cache is warmed once per session -- cold runs fan out across
worker processes through :mod:`repro.pipeline`, warm sessions load
artifacts from the on-disk store -- so the per-table/figure benches
measure their experiment, not redundant RevNIC re-runs.  The warm-up also
emits ``BENCH_pipeline.json`` at the repo root: per-driver pipeline wall
seconds plus solver/executor counters, the serial sum, and the measured
wall-clock of this session's (possibly parallel or cached) warm-up --
which CI uploads as an artifact; ``benchmarks/BENCH_pipeline.baseline.json``
is the committed baseline the perf trajectory is tracked against.
"""

import json
import os
import time

import pytest

from repro.eval.runner import get_cache

_BENCH_COUNTERS = ("wall_seconds", "blocks_executed", "exec_fast_blocks",
                   "forks", "solver_queries", "solver_comp_solves",
                   "solver_cache_hits", "solver_fast_path_hits",
                   "solver_unknown", "solver_unsat", "eval_program_runs",
                   "eval_node_visits", "hw_reads", "hw_writes")

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")


def _write_bench(report):
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def update_bench(section, record):
    """Replace ``section`` of ``BENCH_pipeline.json`` with ``record``,
    keeping every other section."""
    report = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            report = json.load(handle)
    report[section] = dict(record)
    _write_bench(report)


def best_of(runs, fn):
    """Best wall-clock of ``runs`` attempts (damps scheduler noise
    without hiding a real regression) plus the last result."""
    best, result = None, None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _emit_bench_json(orchestrator, artifacts):
    report = {"drivers": {}, "total_wall_seconds": 0.0}
    for artifact in artifacts:
        stats = artifact.stats
        entry = {key: stats[key] for key in _BENCH_COUNTERS}
        entry["coverage"] = artifact.coverage_fraction
        entry["source"] = artifact.source
        frontier = stats.get("frontier")
        if frontier:
            # Partitioned-exploration rows: how the frontier was sharded
            # and what the merge cost, so scaling regressions show up per
            # driver rather than only in the aggregate wall clock.
            entry["frontier"] = {
                key: frontier.get(key)
                for key in ("split_depth", "subtrees", "max_depth",
                            "workers", "states_per_worker", "steals",
                            "merge_wall_seconds")}
        report["drivers"][artifact.name] = entry
        report["total_wall_seconds"] += stats["wall_seconds"]
    report["total_wall_seconds"] = round(report["total_wall_seconds"], 3)
    # The orchestration numbers: how long *this* session's warm-up took
    # (parallel fan-out or cache loads) next to the summed per-driver
    # pipeline seconds it replaces.
    report["warm_wall_seconds"] = round(
        orchestrator.last_warm_seconds or 0.0, 3)
    report["warm_mode"] = orchestrator.last_warm_mode
    # Split the measured warm-up wall by what it actually paid for:
    # "cached" sessions only load artifacts from disk, anything else
    # recomputed at least one driver.  Scaling gates must compare
    # cold-compute against cold-compute -- a disk-cache hit would make
    # any parallelism look infinitely fast.
    wall = report["warm_wall_seconds"]
    if orchestrator.last_warm_mode == "cached":
        report["warm_load_wall_seconds"] = wall
        report["cold_compute_wall_seconds"] = None
    else:
        report["warm_load_wall_seconds"] = None
        report["cold_compute_wall_seconds"] = wall
    _write_bench(report)


@pytest.fixture(scope="session")
def cache():
    """Process-wide pipeline orchestrator, pre-warmed for all drivers."""
    shared = get_cache()
    artifacts = shared.all_drivers()
    _emit_bench_json(shared, artifacts)
    return shared


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a whole-experiment function with a single round (these
    are end-to-end experiment regenerations, not microbenchmarks)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
