"""The counter table and its per-run tally (``repro.counters``)."""

import json
import os
import subprocess
import sys

import repro
from repro.counters import NAMES, counting, snapshot
from repro.ir.compile import exec_counters
from repro.ir.superblock import superblock_counters
from repro.pipeline.orchestrator import execute_run
from repro.symex import expr as E
from repro.symex.expr import eval_counters

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: One cold rtl8029 pipeline run in a fresh interpreter; prints its tally.
_FRESH_RUN = """
import json
from repro.counters import counting
from repro.pipeline.orchestrator import execute_run
with counting() as work:
    execute_run("rtl8029")
print(json.dumps(work))
"""


def test_names_are_the_three_views_in_order():
    assert len(set(NAMES)) == len(NAMES)
    views = [*eval_counters(), *exec_counters(), *superblock_counters()]
    assert views == list(NAMES)
    assert list(snapshot()) == list(NAMES)


def test_tally_is_the_increase_over_the_block():
    x = E.bv_sym("tally_x")
    with counting() as outer:
        with counting() as inner:
            E.compiled(E.bv_add(x, 7))({"tally_x": 1})
        E.compiled(E.bv_add(x, 7))({"tally_x": 2})
    assert list(inner) == list(NAMES)
    assert inner["program_runs"] == 1 and outer["program_runs"] == 2
    assert outer["block_runs"] == inner["block_runs"] == 0


def test_a_run_tallies_what_a_fresh_interpreter_does():
    env = dict(os.environ, PYTHONPATH=_SRC)
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", _FRESH_RUN], env=env, check=True,
        capture_output=True, text=True).stdout)

    # Other history: another driver's run, then conjunctions fused from
    # a shorter run of the same driver, the prefixes its full run would
    # otherwise find already in the table.
    execute_run("pcnet")
    execute_run("rtl8029", script="quick")
    E._fuse((E.bv_cmp("ne", E.bv_sym("tally_y"), 0),
             E.bv_cmp("ult", E.bv_sym("tally_y"), 9)))
    with counting() as here:
        execute_run("rtl8029")

    # blocks_compiled counts misses of the process-wide table of compiled
    # blocks (ir.compile._SHARED_PROGRAMS): the history above compiled
    # some of the blocks this run executes.
    assert here.pop("blocks_compiled") <= fresh.pop("blocks_compiled")
    assert here == fresh
