"""The top-level RevNIC engine.

Orchestrates one reverse-engineering run: load the binary driver next to a
shell symbolic device, execute the exercise script phase by phase under
selective symbolic execution, and collect the wiretap trace, coverage
timeline and statistics.  The output feeds :mod:`repro.synth`.
"""

import itertools
import time
from dataclasses import dataclass, field

from repro.counters import counting
from repro.dbt import CodeWindow, Translator
from repro.errors import SymexError
from repro.guestos.loader import load_image
from repro.guestos.structures import ADAPTER_CONTEXT_SIZE, NdisStatus
from repro.isa.registers import REG_SP
from repro.layout import HEAP_BASE, RETURN_TO_OS, STACK_TOP
from repro.revnic.coverage import CoverageTracker, static_basic_blocks
from repro.revnic.exerciser import make_script, make_symbolic_buffer
from repro.revnic.heuristics import StateScheduler, make_strategy
from repro.revnic.osbridge import SymOsBridge
from repro.revnic.shell_device import ShellDevice
from repro.revnic.trace import PathTrace, Trace, TraceSegment
from repro.revnic.wiretap import Wiretap
from repro.symex import expr as E
from repro.symex.executor import HardwarePolicy, SymExecutor
from repro.symex.memory import SymMemory
from repro.symex.state import PathStatus, SymState
from repro.symex.solver import Solver
from repro.vm.machine import Machine


@dataclass
class RevNicConfig:
    """Run parameters (the paper's command line + configuration file)."""

    driver_name: str = "driver"
    #: PCI identity of the device whose driver is reverse engineered
    #: (vendor/product id, I/O ranges, IRQ -- from the device manager).
    pci: object = None
    #: exploration strategy: 'coverage' (paper default), 'dfs', 'bfs'
    strategy: str = "coverage"
    #: per-phase translation-block budget
    max_blocks_per_phase: int = 6000
    #: entry-point completion cutoff (paper: after an entry point completes
    #: successfully a given number of times, discard all other paths)
    completion_cutoff: int = 4
    #: the cutoff only fires once exploration has gone this many blocks
    #: without discovering new code (paper section 3.2: "executed
    #: symbolically until no more new code blocks are discovered within
    #: some predefined amount of time")
    stale_window: int = 300
    #: polling-loop kill threshold (local re-executions of one block)
    loop_kill_threshold: int = 12
    max_states: int = 256
    #: functions to skip (paper: OS functions like log writes can be
    #: configured away; name -> forced return value, or name ->
    #: (return value, argument count) for APIs without a bridge handler).
    #: Honored by :class:`~repro.revnic.osbridge.SymOsBridge`.
    skip_functions: dict = field(default_factory=dict)
    #: coverage sample interval in executed blocks
    sample_every: int = 25
    #: exercise script: 'default' (the full NIC script) or 'quick' (the
    #: reduced smoke script).  An explicit ``script=`` argument to
    #: :class:`RevNic` overrides this.
    script: str = "default"

@dataclass
class RevNicResult:
    """Everything a RevNIC run produced.

    Self-contained by design: ``import_names`` and the captured ``code``
    window mean downstream synthesis never needs the live engine, so a
    result (and the artifact built from it) can cross a process boundary.
    """

    trace: Trace
    coverage: CoverageTracker
    entry_points: dict
    stats: dict
    dma_regions: list
    #: import slot -> OS API name (from the loaded image)
    import_names: dict = field(default_factory=dict)
    #: relocated text snapshot; the synthesizer's DBT fallback translates
    #: missing blocks from it without a live machine
    code: object = None

    @property
    def coverage_fraction(self):
        return self.coverage.fraction


def _is_success(return_value):
    """The paper's completion-cutoff predicate: a concrete
    ``NDIS_STATUS_SUCCESS`` return."""
    return isinstance(return_value, int) \
        and return_value == NdisStatus.SUCCESS


class ExplorationResult:
    """What one scheduler loop produced."""

    __slots__ = ("terminal", "completed", "blocks")

    def __init__(self, terminal, completed, blocks):
        self.terminal = terminal      # every finished state, event order
        self.completed = completed    # COMPLETED subset, completion order
        self.blocks = blocks          # translation blocks executed


def run_exploration(scheduler, executor, bridge, coverage, config, budget,
                    on_block=None):
    """Run the scheduler loop until the budget, the cutoff, or quiescence.

    This is the exploration semantics of one entry-point phase (paper
    section 3.2): pick per strategy, step, enqueue successors, cross the
    OS boundary on import calls, track discovery staleness, and apply the
    entry-point completion cutoff.  ``on_block`` runs after every
    executed block (the engine's run-wide accounting hook).
    """
    terminal = []
    completed = []
    blocks = 0
    covered_before = len(coverage.executed)
    blocks_at_last_discovery = 0

    def enqueue(state):
        scheduler.add(state)
        if state.status == PathStatus.KILLED:
            terminal.append(state)

    while blocks < budget:
        state = scheduler.next_state()
        if state is None:
            break
        successors, events = executor.step(state)
        blocks += 1
        if on_block is not None:
            on_block()
        for successor in successors:
            enqueue(successor)
        for event in events:
            if event.kind == "import-call":
                followups = bridge.handle(event.state, event.slot)
                for follow in followups:
                    enqueue(follow)
                if event.state.status == PathStatus.COMPLETED:
                    completed.append(event.state)
                    terminal.append(event.state)
                elif event.state.status in (PathStatus.ERROR,
                                            PathStatus.HALTED):
                    terminal.append(event.state)
            elif event.kind == "completed":
                completed.append(event.state)
                terminal.append(event.state)
            else:
                terminal.append(event.state)
        covered_now = len(coverage.executed)
        if covered_now != covered_before:
            covered_before = covered_now
            blocks_at_last_discovery = blocks
        successes = [s for s in completed if _is_success(s.return_value)]
        stale = blocks - blocks_at_last_discovery >= config.stale_window
        if len(successes) >= config.completion_cutoff and stale:
            for killed in scheduler.states:
                terminal.append(killed)
            scheduler.kill_all()
            break

    # Collect remaining queued states as killed paths (their traces
    # still contribute covered blocks).
    for state in scheduler.states:
        state.status = PathStatus.KILLED
        terminal.append(state)
    scheduler.states = []
    return ExplorationResult(terminal, completed, blocks)


class RevNic:
    """One reverse-engineering run over one binary driver."""

    def __init__(self, image, config=None, script=None, hardware=None):
        """``hardware`` optionally replaces the default
        :class:`HardwarePolicy` (e.g. ``HardwarePolicy(retain_log=True)``
        to keep the full device-access log for inspection)."""
        self.image = image
        self.config = config or RevNicConfig()
        self.script = script or make_script(self.config.script)
        self.machine = Machine()
        self.loaded = load_image(self.machine, image)
        self.shell = ShellDevice(self.config.pci) if self.config.pci \
            else None
        self.solver = Solver()
        self.translator = Translator(
            lambda addr, size: self.machine.memory.read_bytes(addr, size))
        self.wiretap = Wiretap(self.loaded.text_base, self.loaded.text_end)
        self.entry_points = {}
        self.bridge = SymOsBridge(
            self.solver, self.shell, wiretap=self.wiretap,
            import_names=self.loaded.import_names,
            on_entry_points=self.entry_points.update,
            skip_functions=self.config.skip_functions)
        self.hardware = hardware or HardwarePolicy()
        self.executor = SymExecutor(
            self.translator, self.solver, hardware=self.hardware,
            tracer=self.wiretap,
            is_dma_address=(self.shell.is_dma_address if self.shell
                            else None))
        self.coverage = CoverageTracker(
            static_basic_blocks(image, self.loaded.text_base))
        self.wiretap.coverage = self.coverage
        self.context_address = HEAP_BASE
        self._blocks_total = 0
        self._start_time = None
        self._phase_log = []

    # ------------------------------------------------------------------

    def run(self):
        """Execute the full exercise script; returns a RevNicResult."""
        self._start_time = time.monotonic()
        E.reset_programs()
        trace = Trace(driver_name=self.config.driver_name,
                      text_base=self.loaded.text_base,
                      text_size=len(self.image.text))
        with counting() as work:
            continuation = self._initial_state()
            for phase in self.script:
                segment, continuation = self._run_phase(phase, continuation)
                if segment is not None:
                    trace.segments.append(segment)
                if phase.interrupt_after and "isr" in self.entry_points:
                    from repro.revnic.exerciser import Phase
                    segment, continuation = self._run_phase(
                        Phase("isr"), continuation)
                    if segment is not None:
                        trace.segments.append(segment)

        trace.entry_points = dict(self.entry_points)
        stats = {
            "blocks_executed": self._blocks_total,
            "exec_fast_blocks": self.executor.fast_blocks,
            "forks": self.executor.forks,
            "solver_queries": self.solver.queries,
            "solver_comp_solves": self.solver.comp_solves,
            "solver_cache_hits": self.solver.cache_hits,
            "solver_fast_path_hits": self.solver.fast_path_hits,
            "solver_unknown": self.solver.unknown_results,
            "solver_unsat": self.solver.unsat_results,
            "eval_program_runs": work["program_runs"],
            "eval_node_visits": work["node_visits"],
            "eval_nodes_lowered": work["nodes_lowered"],
            "blocks_recorded": self.wiretap.blocks_recorded,
            "imports_recorded": self.wiretap.imports_recorded,
            "hw_reads": self.hardware.reads_total,
            "hw_writes": self.hardware.writes_total,
            "hw_read_counts": dict(self.hardware.read_counts),
            "hw_write_counts": dict(self.hardware.write_counts),
            "os_calls_handled": self.bridge.calls_handled,
            "os_calls_skipped": self.bridge.calls_skipped,
            "wall_seconds": time.monotonic() - self._start_time,
            "phases": list(self._phase_log),
        }
        dma = list(self.shell.dma_regions) if self.shell else []
        code = CodeWindow(self.loaded.text_base,
                          self.machine.memory.read_bytes(
                              self.loaded.text_base, len(self.image.text)))
        return RevNicResult(trace=trace, coverage=self.coverage,
                            entry_points=dict(self.entry_points),
                            stats=stats, dma_regions=dma,
                            import_names=dict(self.loaded.import_names),
                            code=code)

    # ------------------------------------------------------------------

    def _initial_state(self):
        memory = SymMemory(self.machine.memory.read)
        # Fresh id counter per run: every state descends from this root,
        # so path ids (serialized into artifacts) restart at zero for
        # each run regardless of process history.
        return SymState(pc=0, regs=[0] * 16, memory=memory,
                        id_source=itertools.count())

    def _entry_address(self, name):
        if name == "driver_entry":
            return self.loaded.entry_address
        return self.entry_points.get(name)

    def _prepare_root(self, phase, continuation):
        """Build the phase's root state from the previous continuation."""
        address = self._entry_address(phase.entry)
        if address is None:
            return None
        root = continuation.fork()
        root.parent = None          # cut the trace chain between segments
        root.trace_chain = []
        root.trace_records = []
        root.status = PathStatus.RUNNING
        root.block_counts = {}

        args = []
        if phase.entry != "driver_entry":
            args.append(self.context_address)
        scratch = root.os.heap_next
        for index, spec in enumerate(phase.args):
            kind = spec[0]
            if kind == "const":
                args.append(spec[1])
            elif kind == "sym":
                args.append(E.bv_sym("%s_%s" % (phase.entry, spec[1])))
            elif kind == "buffer":
                size, symbolic_bytes = spec[1], spec[2]
                address_buf = (scratch + 63) & ~63
                scratch = address_buf + size
                make_symbolic_buffer(root, address_buf, size, symbolic_bytes,
                                     "%s_buf%d" % (phase.entry, index))
                args.append(address_buf)
            else:
                raise SymexError("bad arg spec %r" % (spec,))
        root.os.heap_next = scratch

        sp = STACK_TOP
        for value in reversed(args):
            sp -= 4
            root.memory.write(sp, 4, value)
        sp -= 4
        root.memory.write(sp, 4, RETURN_TO_OS)
        root.regs = [0] * 16
        root.regs[REG_SP] = sp
        root.pc = address
        return root

    def _make_scheduler(self):
        return StateScheduler(
            strategy=make_strategy(self.config.strategy),
            loop_kill_threshold=self.config.loop_kill_threshold,
            max_states=self.config.max_states)

    def _on_block(self):
        """Run-wide block accounting hook for the exploration loop."""
        self._blocks_total += 1
        if self._blocks_total % self.config.sample_every == 0:
            self.coverage.sample(self._blocks_total,
                                 time.monotonic() - self._start_time)

    def _append_paths(self, segment, states):
        for state in states:
            records = state.path_trace()
            if records:
                segment.paths.append(PathTrace(
                    path_id=state.id, records=records,
                    status=state.status.value,
                    return_value=state.return_value))

    def _run_phase(self, phase, continuation):
        root = self._prepare_root(phase, continuation)
        if root is None:
            return None, continuation
        segment = TraceSegment(entry_name=phase.entry,
                               entry_address=root.pc)
        scheduler = self._make_scheduler()
        scheduler.add(root)
        budget = phase.max_blocks or self.config.max_blocks_per_phase
        result = run_exploration(
            scheduler, self.executor, self.bridge, self.coverage,
            self.config, budget, on_block=self._on_block)

        self._append_paths(segment, result.terminal)
        self.coverage.sample(self._blocks_total,
                             time.monotonic() - self._start_time)
        self._phase_log.append({
            "entry": phase.entry, "blocks": result.blocks,
            "paths": len(segment.paths),
            "completed": len(result.completed),
            "coverage": self.coverage.fraction,
        })
        next_continuation = self._pick_continuation(result.completed,
                                                    continuation)
        return segment, next_continuation

    def _pick_continuation(self, completed, previous):
        """Choose the state exploration continues from: a successful
        completion if any (paper: "discards all paths except one successful
        one"), else any completion, else the previous continuation."""
        for state in completed:
            if _is_success(state.return_value):
                return state
        if completed:
            return completed[0]
        return previous
