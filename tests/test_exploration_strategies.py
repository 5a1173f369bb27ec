"""The coverage strategy's deterministic tie-break.

The coverage-driven strategy (paper section 3.2) picks the queued state
whose block has run least often.  Ties are frequent, and they must break
on the state id, never on worklist position: the pick is then a pure
function of the state *set*, so artifact bytes do not depend on the
order in which states entered the worklist.
"""

import itertools

from repro.revnic.heuristics import CoverageDrivenStrategy


class FakeState:
    """Just enough of SymState for a strategy pick: pc and id."""

    def __init__(self, pc, ids):
        self.pc = pc
        self.id = next(ids)


def test_coverage_tie_breaks_on_state_id():
    """Equal coverage counts break on the deterministic state id, never
    on worklist position."""
    ids = itertools.count(10)
    strategy = CoverageDrivenStrategy()
    a = FakeState(7, ids)   # id 10
    b = FakeState(7, ids)   # id 11
    c = FakeState(7, ids)   # id 12
    for order in itertools.permutations([a, b, c]):
        states = list(order)
        assert states[strategy.pick(states)] is a
    # A strictly lower block count still beats a lower id.
    strategy.block_counts[7] = 5
    d = FakeState(9, ids)   # id 13, untouched pc
    for order in itertools.permutations([a, b, d]):
        states = list(order)
        assert states[strategy.pick(states)] is d
