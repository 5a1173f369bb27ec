"""Benchmark: the cross-OS differential validation matrix.

Two experiments:

* **equivalence** -- the full 4-driver x 4-OS matrix under the whole
  workload catalog, against the session's shared artifacts: every
  equivalence-expected cell must match the original binary scenario for
  scenario, and the only non-equivalent cells must be the expected
  unsupported ones (DMA drivers on uC/OS-II);
* **cold vs warm** -- the same matrix against a fresh artifact store:
  the cold run pays for reverse engineering, the warm run rides the store and must
  rewrite no entry of it.  The warm matrix's speed is measured by
  ``perfbench/`` (see ``perfbench/README.md``), not here.
"""

import os

from repro.pipeline import ArtifactStore, PipelineOrchestrator
from repro.validate import ValidationMatrix


def test_full_matrix_equivalence(cache):
    """Every equivalence-expected cell matches; nothing unexplained."""
    result = ValidationMatrix(orchestrator=cache).run()
    assert len(result.cells) == 16
    assert result.unexplained() == [], \
        "unexplained divergences: %r" % (result.unexplained(),)
    for (driver, os_name), cell in sorted(result.cells.items()):
        assert cell.status == cell.expected, \
            "%s/%s: %s (expected %s)" % (driver, os_name, cell.status,
                                         cell.expected)
    summary = result.summary()
    # 14 hostable cells x the full catalog actually ran and matched.
    assert summary["equivalent"] == 14
    assert summary["unsupported"] == 2
    assert summary["scenarios_run"] >= 14 * 11
    assert summary["scenarios_matched"] == summary["scenarios_run"] \
        - sum(len(result.cell(d, o).ran)
              for d in result.drivers for o in result.os_names
              if result.cell(d, o).status == "unsupported")


def _store_entries(root):
    """``{name: (inode, mtime_ns)}`` of every store entry.  A publish
    replaces the file (temp file + ``os.replace``), so a recomputed entry
    gets a new inode and modification time; a load reads the file and
    leaves both alone."""
    return {entry.name: (entry.inode(), entry.stat().st_mtime_ns)
            for entry in os.scandir(ArtifactStore(root).directory)
            if entry.is_file()}


def test_cold_vs_warm_matrix(tmp_path):
    """A warm (artifact-cached) matrix run never re-runs reverse
    engineering: it rewrites or touches no store entry."""
    store_root = str(tmp_path / "matrix-store")

    cold = ValidationMatrix(
        orchestrator=PipelineOrchestrator(store=ArtifactStore(store_root)))
    cold_result = cold.run()
    assert cold_result.unexplained() == []

    cold_entries = _store_entries(store_root)
    assert cold_entries
    warm = ValidationMatrix(
        orchestrator=PipelineOrchestrator(store=ArtifactStore(store_root)))
    warm_result = warm.run()
    assert warm_result.unexplained() == []
    assert len(warm_result.cells) == 16
    assert _store_entries(store_root) == cold_entries, \
        "the warm matrix rewrote or touched store entries"
