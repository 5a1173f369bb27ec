"""The library's deterministic work counters, in one table.

Every counter is one cell of :data:`CELLS`.  Generated code (expression
programs, compiled blocks, superblock chains) binds the list as ``_c``
when it is compiled and bumps a cell by its literal index, so a bump
costs what it would against a module-private list.  The counters are
process totals; :func:`counting` reads them per run, as the increase
over a ``with`` block.

Which counters measure a run's own work and which count misses of
process-lifetime tables is set out in DESIGN.md ("Counters").
"""

from contextlib import contextmanager

#: Compiled expression programs (``repro.symex.expr``).
EVAL = ("program_runs", "node_visits", "programs", "nodes_lowered")
#: Compiled translation blocks (``repro.ir.compile``).
EXEC = ("blocks_compiled", "block_runs")
#: Superblock chains (``repro.ir.superblock``).
SUPERBLOCK = ("superblocks_formed", "superblock_runs", "superblock_blocks",
              "superblock_deopts", "superblock_loop_iterations",
              "superblock_stream_elements")

#: Every counter, in cell order.
NAMES = EVAL + EXEC + SUPERBLOCK

#: The cells, one per name; only ever bumped, never reset.
CELLS = [0] * len(NAMES)


def snapshot(names=NAMES):
    """Current process totals of ``names``, by name."""
    return {name: CELLS[NAMES.index(name)] for name in names}


@contextmanager
def counting():
    """Yield a dict that, when the block exits, holds every counter's
    increase over the block, by name in :data:`NAMES` order."""
    tally = {}
    before = list(CELLS)
    try:
        yield tally
    finally:
        tally.update((name, after - first) for name, after, first
                     in zip(NAMES, CELLS, before))
