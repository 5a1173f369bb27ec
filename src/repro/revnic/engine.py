"""The top-level RevNIC engine.

Orchestrates one reverse-engineering run: load the binary driver next to a
shell symbolic device, execute the exercise script phase by phase under
selective symbolic execution, and collect the wiretap trace, coverage
timeline and statistics.  The output feeds :mod:`repro.synth`.
"""

import itertools
import time
from dataclasses import dataclass, field

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
from repro.symex import frontier
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
    #: fork depth (relative to each phase root) at which forked states
    #: are parked into the exploration frontier; their sub-trees then run
    #: in isolation -- in-process or sharded across worker processes
    #: (``REVNIC_EXPLORE_WORKERS``) -- and merge into byte-identical
    #: output either way.  0 keeps the single-queue exploration of the
    #: paper's prototype.  Part of the config (and therefore the artifact
    #: cache key) because it changes which paths are explored; the worker
    #: count deliberately is not.
    explore_split_depth: int = 0


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


class RevNic:
    """One reverse-engineering run over one binary driver."""

    def __init__(self, image, config=None, script=None, hardware=None,
                 explore_workers=None):
        """``hardware`` optionally replaces the default
        :class:`HardwarePolicy` (e.g. ``HardwarePolicy(retain_log=True)``
        to keep the full device-access log for inspection).

        ``explore_workers`` shards frontier sub-trees across that many
        worker processes when ``config.explore_split_depth > 0``
        (default: the ``REVNIC_EXPLORE_WORKERS`` environment variable).
        It is a runtime knob only -- results are byte-identical for any
        worker count, including 0/1 (in-process)."""
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
        #: sharded-exploration plumbing (active only when
        #: ``config.explore_split_depth > 0``; see repro.symex.frontier)
        self.explore_workers = frontier.env_workers() \
            if explore_workers is None else max(0, int(explore_workers))
        self._id_source = None
        self._subtree_count = itertools.count()
        self._subtree_ctx = None
        self._shard_pool = None
        self._frontier_extra = {}       # additive stat deltas, sub-trees
        self._frontier_hw = ({}, {})    # merged hw read/write counts
        self._frontier_stats = {"phases": 0, "subtrees": 0,
                                "subtree_blocks": 0, "max_depth": 0}
        self._frontier_volatile = {"merge_wall_seconds": 0.0,
                                   "fallbacks": 0}
        #: expression-eval work done by *decoding* worker outcomes
        #: (constraint replay solver-context rebuilds run compiled
        #: programs).  Serial exploration never decodes, so this is
        #: subtracted from the run-level eval delta to keep the stats a
        #: pure function of the exploration itself.
        self._eval_overhead = {"program_runs": 0, "node_visits": 0}

    # ------------------------------------------------------------------

    def run(self):
        """Execute the full exercise script; returns a RevNicResult."""
        try:
            return self._run()
        finally:
            if self._shard_pool is not None:
                self._shard_pool.close()

    def _run(self):
        self._start_time = time.monotonic()
        eval_before = E.eval_counters()
        trace = Trace(driver_name=self.config.driver_name,
                      text_base=self.loaded.text_base,
                      text_size=len(self.image.text))
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
        eval_after = E.eval_counters()
        # Sub-trees run against their own executor/solver/wiretap/bridge
        # (isolation is what makes sharding deterministic), so their
        # counter deltas are merged in from _frontier_extra; all zeros in
        # legacy single-queue mode.
        extra = self._frontier_extra
        hw_read_counts = dict(self.hardware.read_counts)
        hw_write_counts = dict(self.hardware.write_counts)
        for kind, count in self._frontier_hw[0].items():
            hw_read_counts[kind] = hw_read_counts.get(kind, 0) + count
        for kind, count in self._frontier_hw[1].items():
            hw_write_counts[kind] = hw_write_counts.get(kind, 0) + count
        stats = {
            "blocks_executed": self._blocks_total,
            "exec_fast_blocks": (self.executor.fast_blocks
                                 + extra.get("fast_blocks", 0)),
            "forks": self.executor.forks + extra.get("forks", 0),
            "solver_queries": (self.solver.queries
                               + extra.get("solver_queries", 0)),
            "solver_comp_solves": (self.solver.comp_solves
                                   + extra.get("solver_comp_solves", 0)),
            "solver_cache_hits": (self.solver.cache_hits
                                  + extra.get("solver_cache_hits", 0)),
            "solver_fast_path_hits": (self.solver.fast_path_hits
                                      + extra.get("solver_fast_path_hits",
                                                  0)),
            "solver_unknown": (self.solver.unknown_results
                               + extra.get("solver_unknown", 0)),
            "solver_unsat": (self.solver.unsat_results
                             + extra.get("solver_unsat", 0)),
            "eval_program_runs": (eval_after["program_runs"]
                                  - eval_before["program_runs"]
                                  - self._eval_overhead["program_runs"]
                                  + extra.get("eval_program_runs", 0)),
            "eval_node_visits": (eval_after["node_visits"]
                                 - eval_before["node_visits"]
                                 - self._eval_overhead["node_visits"]
                                 + extra.get("eval_node_visits", 0)),
            "blocks_recorded": (self.wiretap.blocks_recorded
                                + extra.get("blocks_recorded", 0)),
            "imports_recorded": (self.wiretap.imports_recorded
                                 + extra.get("imports_recorded", 0)),
            "hw_reads": self.hardware.reads_total + extra.get("hw_reads", 0),
            "hw_writes": (self.hardware.writes_total
                          + extra.get("hw_writes", 0)),
            "hw_read_counts": hw_read_counts,
            "hw_write_counts": hw_write_counts,
            "os_calls_handled": (self.bridge.calls_handled
                                 + extra.get("os_calls_handled", 0)),
            "os_calls_skipped": (self.bridge.calls_skipped
                                 + extra.get("os_calls_skipped", 0)),
            "wall_seconds": time.monotonic() - self._start_time,
            "phases": list(self._phase_log),
        }
        if self.config.explore_split_depth > 0:
            pool = self._shard_pool
            stats["frontier"] = {
                # deterministic keys (part of canonical artifact bytes)
                "split_depth": self.config.explore_split_depth,
                "phases": self._frontier_stats["phases"],
                "subtrees": self._frontier_stats["subtrees"],
                "subtree_blocks": self._frontier_stats["subtree_blocks"],
                "max_depth": self._frontier_stats["max_depth"],
                # volatile keys (scrubbed from canonical JSON; see
                # repro.pipeline.artifact._VOLATILE_FRONTIER)
                "mode": ("sharded" if pool is not None and any(pool.served)
                         else "serial"),
                "workers": self.explore_workers,
                "steals": pool.steals if pool is not None else 0,
                "chunk_retries": (pool.chunk_retries
                                  if pool is not None else 0),
                "states_per_worker": (list(pool.served)
                                      if pool is not None else []),
                "merge_wall_seconds":
                    self._frontier_volatile["merge_wall_seconds"],
                "fallbacks": self._frontier_volatile["fallbacks"],
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
        self._id_source = itertools.count()
        state = SymState(pc=0, regs=[0] * 16, memory=memory,
                         id_source=self._id_source)
        return state

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
        if self.config.explore_split_depth > 0:
            # Re-home the root onto the run-wide id counter: a
            # continuation that crossed a process boundary carries a
            # private counter, and child ids must not depend on where the
            # continuation came from.
            root._ids = self._id_source
            root.id = next(self._id_source)
            return self._run_phase_partitioned(phase, root, continuation)
        return self._run_phase_legacy(phase, root, continuation)

    def _run_phase_legacy(self, phase, root, continuation):
        segment = TraceSegment(entry_name=phase.entry,
                               entry_address=root.pc)
        scheduler = self._make_scheduler()
        scheduler.add(root)
        budget = phase.max_blocks or self.config.max_blocks_per_phase
        result = frontier.run_exploration(
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
        next_continuation = self._pick_continuation(
            result.completed, result.terminal, continuation)
        return segment, next_continuation

    def _run_phase_partitioned(self, phase, root, continuation):
        """Partitioned exploration: explore the fork-tree prefix up to
        the split depth with the engine's own plumbing, park every state
        that crosses it into the frontier, run each frontier sub-tree in
        isolation (in-process or sharded across workers), and merge the
        outcomes in canonical order -- prefix first, then sub-trees in
        park order.  The merged segment, coverage, entry points and
        counters are byte-identical for any worker count."""
        split_depth = self.config.explore_split_depth
        segment = TraceSegment(entry_name=phase.entry,
                               entry_address=root.pc)
        park = frontier.FrontierPark(split_depth, root.depth)
        scheduler = self._make_scheduler()
        scheduler.add(root)
        budget = phase.max_blocks or self.config.max_blocks_per_phase
        prefix = frontier.run_exploration(
            scheduler, self.executor, self.bridge, self.coverage,
            self.config, budget, park=park, on_block=self._on_block)

        frontier_states = park.states
        remaining = budget - prefix.blocks
        if prefix.cutoff or remaining <= 0:
            # The prefix already decided the phase: parked states die
            # like any other queued state at cutoff/budget exhaustion.
            for state in frontier_states:
                state.status = PathStatus.KILLED
                prefix.terminal.append(state)
            frontier_states = []

        chunks = []
        if frontier_states:
            covered_seed = set(self.coverage.executed)
            dma_seed = [tuple(region)
                        for region in self.shell.dma_regions] \
                if self.shell is not None else []
            # The phase's remaining budget is divided across sub-trees
            # (first `remainder` trees get the extra block), so the
            # partitioned phase never executes more blocks than the
            # per-phase budget allows.
            share, leftover = divmod(remaining, len(frontier_states))
            for position, state in enumerate(frontier_states):
                chunks.append(frontier.SubtreeChunk(
                    index=next(self._subtree_count), state=state,
                    budget=share + (1 if position < leftover else 0),
                    covered_seed=covered_seed, dma_seed=dma_seed))
        outcomes = self._run_subtrees(chunks)

        # Canonical merge: prefix paths first, then each sub-tree's in
        # park order; one coverage sample per merged sub-tree.
        self._append_paths(segment, prefix.terminal)
        blocks = prefix.blocks
        completed = len(prefix.completed)
        phase_max_depth = 0
        for state in prefix.terminal:
            depth = state.depth - root.depth
            if depth > phase_max_depth:
                phase_max_depth = depth
        for outcome in outcomes:
            segment.paths.extend(outcome.paths)
            blocks += outcome.blocks
            completed += outcome.completed_count
            self._blocks_total += outcome.blocks
            self._merge_outcome(outcome)
            self.coverage.sample(self._blocks_total,
                                 time.monotonic() - self._start_time)
            depth = split_depth + outcome.max_depth
            if depth > phase_max_depth:
                phase_max_depth = depth
        fstats = self._frontier_stats
        fstats["phases"] += 1
        fstats["subtrees"] += len(outcomes)
        fstats["subtree_blocks"] += sum(o.blocks for o in outcomes)
        if phase_max_depth > fstats["max_depth"]:
            fstats["max_depth"] = phase_max_depth

        self.coverage.sample(self._blocks_total,
                             time.monotonic() - self._start_time)
        self._phase_log.append({
            "entry": phase.entry, "blocks": blocks,
            "paths": len(segment.paths),
            "completed": completed,
            "coverage": self.coverage.fraction,
        })
        next_continuation = self._pick_continuation_partitioned(
            prefix, outcomes, continuation)
        return segment, next_continuation

    # -- sub-tree fan-out ----------------------------------------------

    def _subtree_context(self):
        if self._subtree_ctx is None:
            self._subtree_ctx = frontier.SubtreeContext(
                translator=self.translator,
                concrete_read=self.machine.memory.read,
                import_names=self.loaded.import_names,
                pci=self.config.pci, config=self.config,
                text_base=self.loaded.text_base,
                text_end=self.loaded.text_end,
                leaders=self.coverage.leaders)
        return self._subtree_ctx

    def _ensure_pool(self):
        if self.explore_workers > 1 and self._shard_pool is None:
            from repro.pipeline.pool import SupervisedPool

            self._shard_pool = SupervisedPool(
                frontier.worker_setup,
                bootstrap=(self.image.to_bytes(),
                           frontier.config_to_dict(self.config)),
                workers=self.explore_workers)
        return self._shard_pool

    def _decode_outcome(self, reply):
        """A worker's reply as a SubtreeOutcome.  Decoding replays the
        outcome's states' constraints, which runs compiled programs in
        this process; that eval work is not the run's, so it is kept out
        of the run's eval counters -- also when a garbage reply fails
        halfway."""
        before = E.eval_counters()
        try:
            return frontier.decode_outcome(reply, self.machine.memory.read)
        finally:
            after = E.eval_counters()
            for key in ("program_runs", "node_visits"):
                self._eval_overhead[key] += after[key] - before[key]

    def _run_subtrees(self, chunks):
        """Run sub-tree chunks, sharded when a worker pool is available,
        in-process otherwise; outcomes come back in chunk order either
        way.  Worker failures fall back to in-process re-execution per
        chunk, so sharding can only change wall time, never results."""
        if not chunks:
            return []
        pool = self._ensure_pool()
        outcomes = []
        if pool is not None:
            start = time.monotonic()
            messages = [frontier.encode_chunk(chunk) for chunk in chunks]
            # Each reply is decoded as it arrives, while the other workers
            # are still exploring; a reply that does not decode is garbage
            # to the pool (retried, then re-run in-process below).
            replies, _failures = pool.run(messages,
                                          validate=self._decode_outcome)
            for index, chunk in enumerate(chunks):
                outcome = replies.get(index)
                if outcome is None:
                    self._frontier_volatile["fallbacks"] += 1
                    outcome = frontier.explore_subtree(
                        self._subtree_context(), chunk)
                else:
                    # Remote expression-eval work never touched this
                    # process's global counters; in-process runs did.
                    for key in ("eval_program_runs", "eval_node_visits"):
                        self._frontier_extra[key] = \
                            self._frontier_extra.get(key, 0) \
                            + outcome.counters[key]
                outcomes.append(outcome)
            self._frontier_volatile["merge_wall_seconds"] += \
                time.monotonic() - start
        else:
            ctx = self._subtree_context()
            for chunk in chunks:
                outcomes.append(frontier.explore_subtree(ctx, chunk))
        return outcomes

    def _merge_outcome(self, outcome):
        """Fold a sub-tree outcome into run-wide state (counters,
        coverage, entry points, DMA regions) in deterministic order."""
        counters = outcome.counters
        extra = self._frontier_extra
        for key in ("fast_blocks", "forks", "solver_queries",
                    "solver_comp_solves", "solver_cache_hits",
                    "solver_fast_path_hits", "solver_unknown",
                    "solver_unsat", "blocks_recorded",
                    "imports_recorded", "os_calls_handled",
                    "os_calls_skipped"):
            extra[key] = extra.get(key, 0) + counters[key]
        extra["hw_reads"] = extra.get("hw_reads", 0) \
            + sum(counters["hw_read_counts"].values())
        extra["hw_writes"] = extra.get("hw_writes", 0) \
            + sum(counters["hw_write_counts"].values())
        reads, writes = self._frontier_hw
        for kind, count in sorted(counters["hw_read_counts"].items()):
            reads[kind] = reads.get(kind, 0) + count
        for kind, count in sorted(counters["hw_write_counts"].items()):
            writes[kind] = writes.get(kind, 0) + count
        self.coverage.executed.update(outcome.covered_new)
        for name, address in outcome.entry_updates:
            self.entry_points[name] = address
        if self.shell is not None:
            for base, size in outcome.dma_added:
                self.shell.register_dma_region(base, size)

    def _pick_continuation_partitioned(self, prefix, outcomes, previous):
        """The partitioned analogue of :meth:`_pick_continuation`: a
        successful completion from the prefix, else from the first
        sub-tree (in park order) that has one, else any completion in
        the same order, else the previous continuation."""
        for state in prefix.completed:
            if frontier.is_success(state.return_value):
                return state
        for outcome in outcomes:
            if outcome.first_success is not None:
                return outcome.first_success
        if prefix.completed:
            return prefix.completed[0]
        for outcome in outcomes:
            if outcome.first_completed is not None:
                return outcome.first_completed
        return previous

    @staticmethod
    def _is_success(return_value):
        if return_value is None:
            return False
        if not isinstance(return_value, int):
            return False
        return return_value == NdisStatus.SUCCESS

    def _pick_continuation(self, completed, terminal, previous):
        """Choose the state exploration continues from: a successful
        completion if any (paper: "discards all paths except one successful
        one"), else any completion, else the previous continuation."""
        for state in completed:
            if self._is_success(state.return_value):
                return state
        if completed:
            return completed[0]
        return previous
