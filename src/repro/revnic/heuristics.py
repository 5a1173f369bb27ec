"""Exploration heuristics (paper section 3.2).

The scheduler owns the worklist of RUNNING states and decides which
``<path, block>`` tuple executes next.  Strategies are pluggable ("RevNIC
allows these heuristics to be modularly replaced"):

* :class:`CoverageDrivenStrategy` -- the paper's default: a global counter
  per basic block; the next state is the one about to execute the block
  with the lowest count.  Naturally de-prioritizes re-executed loops.
* :class:`DfsStrategy` / :class:`BfsStrategy` -- the baselines the paper
  compares against (DFS gets stuck in polling loops, BFS takes long to
  finish complex entry points); used by the ablation benchmarks.

The scheduler also implements the polling-loop killer: states that keep
re-executing the same block beyond a threshold are killed whenever at
least one other state exists to continue from.
"""

from repro.symex.state import PathStatus


class CoverageDrivenStrategy:
    """Pick the state whose next block has the lowest global execution
    count (the paper's first heuristic)."""

    name = "coverage"

    def __init__(self):
        self.block_counts = {}

    def on_executed(self, pc):
        self.block_counts[pc] = self.block_counts.get(pc, 0) + 1

    def pick(self, states):
        best_index = 0
        best_count = None
        for index, state in enumerate(states):
            count = self.block_counts.get(state.pc, 0)
            # Ties break on the deterministic state id, never on worklist
            # position, so the pick is a pure function of the state *set*
            # and the artifact bytes do not depend on insertion order.
            if best_count is None or count < best_count \
                    or (count == best_count
                        and state.id < states[best_index].id):
                best_count = count
                best_index = index
        return best_index


class DfsStrategy:
    """Depth-first: always continue the most recently touched state."""

    name = "dfs"

    def on_executed(self, pc):
        pass

    def pick(self, states):
        return len(states) - 1


class BfsStrategy:
    """Breadth-first: rotate through states in FIFO order."""

    name = "bfs"

    def on_executed(self, pc):
        pass

    def pick(self, states):
        return 0


def make_strategy(name):
    """Instantiate a strategy by name ('coverage', 'dfs', 'bfs')."""
    strategies = {"coverage": CoverageDrivenStrategy, "dfs": DfsStrategy,
                  "bfs": BfsStrategy}
    try:
        return strategies[name]()
    except KeyError:
        raise ValueError("unknown strategy %r" % name) from None


class StateScheduler:
    """Worklist of running states + the loop-killing policy."""

    def __init__(self, strategy=None, loop_kill_threshold=12,
                 max_states=256):
        self.strategy = strategy or CoverageDrivenStrategy()
        self.loop_kill_threshold = loop_kill_threshold
        self.max_states = max_states
        self.states = []
        self.killed_loops = 0
        self.killed_overflow = 0

    def __len__(self):
        return len(self.states)

    def add(self, state):
        """Add a RUNNING state, applying the loop killer and the state-count
        cap (paper: "RevNIC keeps the paths that step out of the polling
        loops and kills those that go on to the next iteration")."""
        if state.status != PathStatus.RUNNING:
            return
        # Kill only *polling-loop* paths: states that keep re-entering a
        # block through a symbolic back edge.  Concrete-bounded loops
        # (copies, checksums) are never culled -- they terminate on their
        # own and their completion records the post-loop blocks.
        local_count = state.block_counts.get(state.pc, 0)
        if state.pc in state.loop_suspects \
                and local_count >= self.loop_kill_threshold:
            state.status = PathStatus.KILLED
            self.killed_loops += 1
            return
        if len(self.states) >= self.max_states:
            # Memory-pressure valve: drop the deepest state.
            victim_index = max(range(len(self.states)),
                               key=lambda i: self.states[i].depth)
            victim = self.states.pop(victim_index)
            victim.status = PathStatus.KILLED
            self.killed_overflow += 1
        self.states.append(state)

    def next_state(self):
        """Pop the next state to execute, per the strategy."""
        if not self.states:
            return None
        index = self.strategy.pick(self.states)
        state = self.states.pop(index)
        self.strategy.on_executed(state.pc)
        return state

    def kill_all(self, keep=None):
        """Kill every queued state except ``keep`` (used by the entry-point
        completion cutoff)."""
        for state in self.states:
            if state is not keep:
                state.status = PathStatus.KILLED
        self.states = [s for s in self.states if s is keep]
