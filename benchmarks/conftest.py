"""Shared fixtures for the benchmark harness.

The artifact cache is warmed once per session -- cold runs compute
through :mod:`repro.pipeline`, warm sessions load artifacts from the
on-disk store -- so the per-table/figure tests check
their experiment, not redundant RevNIC re-runs.  Nothing here measures
time: timing claims live in ``perfbench/`` (see ``perfbench/README.md``).
"""

import pytest

from repro.eval.runner import get_cache


@pytest.fixture(scope="session")
def cache():
    """Process-wide pipeline orchestrator, pre-warmed for all drivers."""
    shared = get_cache()
    shared.all_drivers()
    return shared
