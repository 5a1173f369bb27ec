"""Execution states for selective symbolic execution.

A state is the paper's ``<path, block>`` tuple made concrete: the full
machine context of one path -- CPU registers (possibly symbolic), COW
symbolic memory, the path constraints, and the per-path OS-side effects
(heap cursor, DMA registrations, pending timers) that forked paths must not
share.
"""

import enum
import itertools
from dataclasses import dataclass, field

from repro.layout import HEAP_BASE
from repro.symex.solver import SolverContext


class PathStatus(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"      # returned to the OS
    KILLED = "killed"            # terminated by an exploration heuristic
    ERROR = "error"              # guest fault / infeasible continuation
    HALTED = "halted"


@dataclass
class OsContext:
    """Per-path OS-side effects (forked with the state)."""

    heap_next: int = HEAP_BASE + 0x40000  # symbolic-phase scratch heap
    timers: dict = field(default_factory=dict)        # struct -> handler
    indicated: int = 0
    send_completions: int = 0
    error_logs: int = 0

    def fork(self):
        return OsContext(heap_next=self.heap_next,
                         timers=dict(self.timers),
                         indicated=self.indicated,
                         send_completions=self.send_completions,
                         error_logs=self.error_logs)


_state_ids = itertools.count()


class SymState:
    """One path through the driver."""

    def __init__(self, pc, regs, memory, constraints=None, os=None,
                 parent=None, solver_ctx=None, id_source=None):
        #: id allocator shared down the fork tree.  A run passes a fresh
        #: counter for its root state so path ids are deterministic per
        #: run (serialized artifacts depend on this), not per process.
        if id_source is None:
            id_source = parent._ids if parent is not None else _state_ids
        self._ids = id_source
        self.id = next(id_source)
        self.pc = pc
        self.regs = list(regs)
        self.memory = memory
        self.constraints = list(constraints or [])
        #: incremental solver view of the path constraints (union-find
        #: components with cached witness models; see symex.solver)
        if solver_ctx is None:
            solver_ctx = SolverContext()
            for constraint in self.constraints:
                if not isinstance(constraint, int):
                    solver_ctx.add(constraint)
        self.solver_ctx = solver_ctx
        self.os = os or OsContext()
        self.parent = parent
        self.status = PathStatus.RUNNING
        self.return_value = None
        #: per-state execution count of each block (loop detection)
        self.block_counts = {}
        #: frozen record lists inherited from fork points (shared,
        #: read-only) followed by this state's live record list -- the
        #: full path trace is their concatenation
        self.trace_chain = []
        self.trace_records = []
        self.depth = 0 if parent is None else parent.depth + 1
        #: concretization model accumulated along the path, so repeated
        #: concretizations stay mutually consistent
        self.model_hint = {} if parent is None else dict(parent.model_hint)
        #: block addresses this state re-entered through a *symbolic*
        #: back-edge -- polling-loop suspects eligible for the loop killer
        #: (concrete-bounded loops like memcpy/CRC are never killed)
        self.loop_suspects = set()

    def fork(self):
        """COW fork at a symbolic branch.

        The live record list is frozen into the shared prefix so records
        the parent produces *after* the fork never leak into the child's
        path (and vice versa).
        """
        child = SymState(self.pc, self.regs, self.memory.fork(),
                         self.constraints, self.os.fork(), parent=self,
                         solver_ctx=self.solver_ctx.fork())
        child.block_counts = dict(self.block_counts)
        child.loop_suspects = set(self.loop_suspects)
        prefix = self.trace_chain + [self.trace_records]
        child.trace_chain = list(prefix)
        child.trace_records = []
        self.trace_chain = list(prefix)
        self.trace_records = []
        return child

    def add_constraint(self, constraint, model=None):
        """Append a path constraint.

        ``model``, when provided, is a witness satisfying the constraint
        together with the components it touches (e.g. the model the
        feasibility check that admitted this constraint found); caching it
        on the solver context keeps later branch checks on the fast path.
        """
        if not isinstance(constraint, int):
            self.constraints.append(constraint)
            self.solver_ctx.add(constraint, model=model)
        elif constraint == 0:
            self.status = PathStatus.ERROR

    def count_block(self, pc):
        """Bump and return this state's local execution count of ``pc``."""
        count = self.block_counts.get(pc, 0) + 1
        self.block_counts[pc] = count
        return count

    def path_trace(self):
        """All trace records from the root to this state, in order."""
        records = []
        for part in self.trace_chain:
            records.extend(part)
        records.extend(self.trace_records)
        return records

    def __repr__(self):
        return "<SymState #%d pc=0x%08x %s depth=%d>" % (
            self.id, self.pc, self.status.value, self.depth)
