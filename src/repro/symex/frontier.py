"""Sharded in-run symbolic exploration: the frontier plane.

One RevNIC run explores an exploration tree whose forks share no mutable
engine state once memory and solver contexts are COW-forked -- the shape
is embarrassingly parallel below any fork depth.  This module makes that
concrete:

* the **frontier codec** serializes a live :class:`SymState` -- registers,
  the symbolic-memory overlay, path constraints, the solver context's
  cached witness models, per-path OS effects and the trace prefix --
  through the artifact expression/block tables (PR 3's codec), so a
  state can cross a process boundary and resume bit-for-bit;
* :func:`explore_subtree` runs one frontier state's sub-tree against a
  **fully isolated** engine slice (fresh solver, namespaced hardware
  symbols, namespaced wiretap sequence, namespaced state ids, private
  shell-device clone and coverage tracker), so its outcome is a pure
  function of ``(context, chunk)`` -- identical whether it runs
  in-process or in a spawned worker;
* :func:`run_exploration` is the one scheduler loop shared by the
  engine's legacy phase exploration and every sub-tree, with an optional
  *park* hook that diverts fork children crossing the configured split
  depth into the frontier instead of the worklist.

Determinism discipline: every namespace (state ids, wiretap sequence
numbers, hardware symbol names) is derived from the sub-tree's run-wide
index, and every serialized collection is emitted in a canonical order,
so the engine's merged :class:`RunArtifact` is byte-identical between
serial and sharded exploration of the same partition.
"""

import itertools
import os

from repro.symex import expr as E
from repro.symex.executor import HardwarePolicy, SymExecutor
from repro.symex.memory import SymMemory
from repro.symex.solver import Solver
from repro.symex.state import OsContext, PathStatus, SymState

#: Environment variable: worker processes for sharded exploration
#: (0/1 = explore sub-trees in-process).  Runtime-only: the worker count
#: never changes artifact bytes, only wall time.
WORKERS_ENV = "REVNIC_EXPLORE_WORKERS"

#: Environment variable: default fork depth at which states are parked
#: into the frontier (0 = legacy single-queue exploration).  Part of
#: :class:`RevNicConfig` -- it changes exploration semantics and
#: therefore artifact bytes and cache keys.
SPLIT_DEPTH_ENV = "REVNIC_EXPLORE_SPLIT_DEPTH"

#: Disjoint per-sub-tree namespaces.  Sub-tree ``index`` (run-wide,
#: assigned in frontier order) allocates state ids from
#: ``(index + 1) * SUBTREE_ID_STRIDE`` and wiretap sequence numbers from
#: ``(index + 1) * SUBTREE_SEQ_STRIDE``; the engine's own prefix counters
#: stay far below the first stride.
SUBTREE_ID_STRIDE = 1_000_000
SUBTREE_SEQ_STRIDE = 1_000_000


def env_workers():
    """Worker count from ``REVNIC_EXPLORE_WORKERS`` (default 0)."""
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            return max(0, int(value))
        except ValueError:
            pass
    return 0


def env_split_depth():
    """Split depth from ``REVNIC_EXPLORE_SPLIT_DEPTH`` (default 0)."""
    value = os.environ.get(SPLIT_DEPTH_ENV)
    if value:
        try:
            return max(0, int(value))
        except ValueError:
            pass
    return 0


def subtree_id_base(index):
    return (index + 1) * SUBTREE_ID_STRIDE


def subtree_seq_base(index):
    return (index + 1) * SUBTREE_SEQ_STRIDE


def subtree_symbol_prefix(index):
    """Hardware-symbol namespace for sub-tree ``index`` (prefix tags are
    ``kind_address``, so ``s<index>_`` can never collide with them)."""
    return "s%d_" % index


def is_success(return_value):
    """The paper's completion-cutoff predicate: a concrete
    ``NDIS_STATUS_SUCCESS`` return."""
    from repro.guestos.structures import NdisStatus

    if not isinstance(return_value, int):
        return False
    return return_value == NdisStatus.SUCCESS


# ==========================================================================
# The shared exploration loop

class FrontierPark:
    """Diverts states crossing the split depth into the frontier.

    Offered states are collected in park order -- deterministic, because
    the prefix exploration that produces them is -- which later becomes
    the canonical sub-tree merge order.
    """

    def __init__(self, split_depth, base_depth):
        self.split_depth = split_depth
        self.base_depth = base_depth
        self.states = []

    def offer(self, state):
        """Park ``state`` if it crossed the split depth; True when taken."""
        if state.status is not PathStatus.RUNNING:
            return False
        if state.depth - self.base_depth < self.split_depth:
            return False
        self.states.append(state)
        return True


class ExplorationResult:
    """What one scheduler loop produced."""

    __slots__ = ("terminal", "completed", "blocks", "cutoff")

    def __init__(self, terminal, completed, blocks, cutoff):
        self.terminal = terminal      # every finished state, event order
        self.completed = completed    # COMPLETED subset, completion order
        self.blocks = blocks          # translation blocks executed
        self.cutoff = cutoff          # the completion cutoff fired


def run_exploration(scheduler, executor, bridge, coverage, config, budget,
                    success=is_success, park=None, on_block=None):
    """Run the scheduler loop until the budget, the cutoff, or quiescence.

    This is the exploration semantics of one entry-point phase (paper
    section 3.2) factored out of the engine so sub-trees execute the
    *same* loop: pick per strategy, step, enqueue successors, cross the
    OS boundary on import calls, track discovery staleness, and apply the
    entry-point completion cutoff.  ``park`` (a :class:`FrontierPark`)
    intercepts states before they reach the scheduler; ``on_block`` runs
    after every executed block (the engine's run-wide accounting hook).
    """
    terminal = []
    completed = []
    blocks = 0
    covered_before = len(coverage.executed)
    blocks_at_last_discovery = 0
    cutoff = False

    def enqueue(state):
        if park is not None and park.offer(state):
            return
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
        successes = [s for s in completed if success(s.return_value)]
        stale = blocks - blocks_at_last_discovery >= config.stale_window
        if len(successes) >= config.completion_cutoff and stale:
            for killed in scheduler.states:
                terminal.append(killed)
            scheduler.kill_all()
            cutoff = True
            break

    # Collect remaining queued states as killed paths (their traces
    # still contribute covered blocks).
    for state in scheduler.states:
        state.status = PathStatus.KILLED
        terminal.append(state)
    scheduler.states = []
    return ExplorationResult(terminal, completed, blocks, cutoff)


# ==========================================================================
# Sub-tree execution

class SubtreeContext:
    """Per-process immutable plumbing shared by every sub-tree run."""

    __slots__ = ("translator", "concrete_read", "import_names", "pci",
                 "config", "text_base", "text_end", "leaders")

    def __init__(self, translator, concrete_read, import_names, pci,
                 config, text_base, text_end, leaders):
        self.translator = translator
        self.concrete_read = concrete_read
        self.import_names = import_names
        self.pci = pci
        self.config = config
        self.text_base = text_base
        self.text_end = text_end
        self.leaders = leaders


class SubtreeChunk:
    """One unit of sharded work: a frontier state plus its context."""

    __slots__ = ("index", "state", "budget", "covered_seed", "dma_seed")

    def __init__(self, index, state, budget, covered_seed, dma_seed):
        self.index = index                  # run-wide sub-tree index
        self.state = state                  # frontier root SymState
        self.budget = budget                # block budget for the sub-tree
        self.covered_seed = covered_seed    # covered instrs at fan-out
        self.dma_seed = dma_seed            # shell DMA regions at fan-out


class SubtreeOutcome:
    """Everything one sub-tree run produced, merge-ready."""

    __slots__ = ("index", "paths", "blocks", "completed_count",
                 "max_depth", "first_success", "first_completed",
                 "entry_updates", "dma_added", "covered_new", "counters")

    def __init__(self, index, paths, blocks, completed_count, max_depth,
                 first_success, first_completed, entry_updates, dma_added,
                 covered_new, counters):
        self.index = index
        self.paths = paths                  # PathTrace list, event order
        self.blocks = blocks
        self.completed_count = completed_count
        self.max_depth = max_depth          # deepest state, frontier-rel.
        self.first_success = first_success  # SymState or None
        self.first_completed = first_completed
        self.entry_updates = entry_updates  # (name, address) in call order
        self.dma_added = dma_added          # regions registered in-tree
        self.covered_new = covered_new      # newly covered instrs, sorted
        self.counters = counters            # additive engine-stat deltas


def explore_subtree(ctx, chunk):
    """Run one frontier sub-tree in isolation.

    Every piece of engine-level mutable plumbing is instantiated fresh
    and namespaced by the chunk's run-wide index -- fresh solver (own
    model cache), own hardware policy with prefixed symbol names, own
    wiretap with a disjoint sequence base, own shell-device clone and
    coverage tracker, and a private state-id counter -- so the outcome
    is a pure function of ``(ctx, chunk)``: in-process execution and a
    spawned worker produce identical results.
    """
    from repro.revnic.coverage import CoverageTracker
    from repro.revnic.heuristics import StateScheduler, make_strategy
    from repro.revnic.osbridge import SymOsBridge
    from repro.revnic.shell_device import ShellDevice
    from repro.revnic.trace import PathTrace
    from repro.revnic.wiretap import Wiretap

    config = ctx.config
    index = chunk.index
    eval_before = E.eval_counters()
    solver = Solver()
    coverage = CoverageTracker(leaders=ctx.leaders,
                               executed=set(chunk.covered_seed))
    wiretap = Wiretap(ctx.text_base, ctx.text_end, coverage=coverage,
                      seq_start=subtree_seq_base(index))
    shell = None
    if ctx.pci is not None:
        shell = ShellDevice(ctx.pci)
        shell.dma_regions = [tuple(region) for region in chunk.dma_seed]
    entry_updates = []

    def on_entry_points(entries):
        entry_updates.extend(entries.items())

    bridge = SymOsBridge(solver, shell, wiretap=wiretap,
                         import_names=ctx.import_names,
                         on_entry_points=on_entry_points,
                         skip_functions=config.skip_functions)
    hardware = HardwarePolicy(name_prefix=subtree_symbol_prefix(index))
    executor = SymExecutor(ctx.translator, solver, hardware=hardware,
                           tracer=wiretap,
                           is_dma_address=(shell.is_dma_address
                                           if shell is not None else None))
    scheduler = StateScheduler(strategy=make_strategy(config.strategy),
                               loop_kill_threshold=config.loop_kill_threshold,
                               max_states=config.max_states)
    root = chunk.state
    root._ids = itertools.count(subtree_id_base(index))
    root_depth = root.depth
    scheduler.add(root)
    result = run_exploration(scheduler, executor, bridge, coverage, config,
                             chunk.budget)
    eval_after = E.eval_counters()

    paths = []
    max_depth = 0
    for state in result.terminal:
        depth = state.depth - root_depth
        if depth > max_depth:
            max_depth = depth
        records = state.path_trace()
        if records:
            paths.append(PathTrace(path_id=state.id, records=records,
                                   status=state.status.value,
                                   return_value=state.return_value))
    first_success = None
    first_completed = None
    if result.completed:
        first_completed = result.completed[0]
        for state in result.completed:
            if is_success(state.return_value):
                first_success = state
                break

    counters = {
        "fast_blocks": executor.fast_blocks,
        "forks": executor.forks,
        "solver_queries": solver.queries,
        "solver_comp_solves": solver.comp_solves,
        "solver_cache_hits": solver.cache_hits,
        "solver_fast_path_hits": solver.fast_path_hits,
        "eval_program_runs": (eval_after["program_runs"]
                              - eval_before["program_runs"]),
        "eval_node_visits": (eval_after["node_visits"]
                             - eval_before["node_visits"]),
        "blocks_recorded": wiretap.blocks_recorded,
        "imports_recorded": wiretap.imports_recorded,
        "hw_read_counts": dict(hardware.read_counts),
        "hw_write_counts": dict(hardware.write_counts),
        "os_calls_handled": bridge.calls_handled,
        "os_calls_skipped": bridge.calls_skipped,
    }
    dma_added = []
    if shell is not None:
        dma_added = [tuple(region)
                     for region in shell.dma_regions[len(chunk.dma_seed):]]
    return SubtreeOutcome(
        index=index, paths=paths, blocks=result.blocks,
        completed_count=len(result.completed), max_depth=max_depth,
        first_success=first_success, first_completed=first_completed,
        entry_updates=entry_updates, dma_added=dma_added,
        covered_new=sorted(coverage.executed - chunk.covered_seed),
        counters=counters)


# ==========================================================================
# Frontier-state codec (rides the artifact expression/block tables)

def encode_state(state, enc, include_trace=True):
    """Serialize a live state through artifact encoder ``enc``.

    Every collection is emitted in a canonical order (sorted addresses,
    sorted symbols, list order for path constraints -- their order is
    semantic: replaying them rebuilds the solver partition).
    """
    from repro.pipeline.artifact import _encode_record

    witnesses = []
    for symbols, model in state.solver_ctx.witnesses():
        witnesses.append([sorted(symbols),
                          sorted(model.items()) if model is not None
                          else None])
    witnesses.sort(key=lambda entry: entry[0])
    data = {
        "id": state.id,
        "pc": state.pc,
        "depth": state.depth,
        "status": state.status.value,
        "return_value": enc.value(state.return_value),
        "regs": [enc.value(reg) for reg in state.regs],
        "overlay": [[address, enc.value(value)]
                    for address, value in sorted(
                        state.memory.overlay_items(),
                        key=lambda item: item[0])],
        "constraints": [enc.value(c) for c in state.constraints],
        "ground_false": state.solver_ctx.ground_false,
        "witnesses": witnesses,
        "model_hint": [[name, value]
                       for name, value in sorted(state.model_hint.items())],
        "block_counts": [[pc, count]
                         for pc, count in sorted(state.block_counts.items())],
        "loop_suspects": sorted(state.loop_suspects),
        "os": {
            "heap_next": state.os.heap_next,
            "dma_regions": [[base, size]
                            for base, size in state.os.dma_regions],
            "timers": [[struct, handler]
                       for struct, handler in sorted(state.os.timers.items())],
            "indicated": state.os.indicated,
            "send_completions": state.os.send_completions,
            "error_logs": state.os.error_logs,
        },
    }
    if include_trace:
        data["trace"] = [_encode_record(record, enc)
                         for record in state.path_trace()]
    return data


def decode_state(data, dec, concrete_read):
    """Rebuild a state: replaying the constraint list reproduces the
    solver partition exactly, then the serialized witnesses re-attach."""
    from repro.pipeline.artifact import _decode_record

    memory = SymMemory(concrete_read)
    for address, value in data["overlay"]:
        memory.write_byte(address, dec.value(value))
    os_data = data["os"]
    os_ctx = OsContext(
        heap_next=os_data["heap_next"],
        dma_regions=[(base, size)
                     for base, size in os_data["dma_regions"]],
        timers={struct: handler for struct, handler in os_data["timers"]},
        indicated=os_data["indicated"],
        send_completions=os_data["send_completions"],
        error_logs=os_data["error_logs"])
    state = SymState(pc=data["pc"],
                     regs=[dec.value(reg) for reg in data["regs"]],
                     memory=memory,
                     constraints=[dec.value(c) for c in data["constraints"]],
                     os=os_ctx, id_source=iter((0,)))
    # The restored id is authoritative; the child-id counter is assigned
    # by whoever runs the state next (explore_subtree namespaces it, the
    # engine re-homes continuations onto its run counter).
    state.id = data["id"]
    state._ids = itertools.count(0)
    state.depth = data["depth"]
    state.status = PathStatus(data["status"])
    state.return_value = dec.value(data["return_value"])
    state.model_hint = {name: value for name, value in data["model_hint"]}
    state.block_counts = {pc: count for pc, count in data["block_counts"]}
    state.loop_suspects = set(data["loop_suspects"])
    state.solver_ctx.ground_false = data["ground_false"]
    state.solver_ctx.attach_witnesses({
        frozenset(symbols): (dict(model) if model is not None else None)
        for symbols, model in data["witnesses"]})
    if "trace" in data:
        state.trace_chain = [[_decode_record(record, dec)
                              for record in data["trace"]]]
        state.trace_records = []
    return state


# -- chunk / outcome messages ----------------------------------------------

def encode_chunk(chunk):
    """Chunk -> self-contained message (private expr/block tables)."""
    from repro.pipeline.artifact import _Encoder

    enc = _Encoder()
    payload = {
        "index": chunk.index,
        "budget": chunk.budget,
        "covered_seed": sorted(chunk.covered_seed),
        "dma_seed": [[base, size] for base, size in chunk.dma_seed],
        "state": encode_state(chunk.state, enc),
    }
    return {"payload": payload, "exprs": enc.exprs, "blocks": enc.blocks}


def decode_chunk(message, concrete_read):
    from repro.pipeline.artifact import _Decoder

    dec = _Decoder(message["exprs"], message["blocks"])
    payload = message["payload"]
    return SubtreeChunk(
        index=payload["index"],
        state=decode_state(payload["state"], dec, concrete_read),
        budget=payload["budget"],
        covered_seed=set(payload["covered_seed"]),
        dma_seed=[tuple(region) for region in payload["dma_seed"]])


def encode_outcome(outcome):
    """Outcome -> self-contained message (private expr/block tables)."""
    from repro.pipeline.artifact import _Encoder, _encode_record

    enc = _Encoder()
    counters = dict(outcome.counters)
    counters["hw_read_counts"] = sorted(counters["hw_read_counts"].items())
    counters["hw_write_counts"] = sorted(counters["hw_write_counts"].items())
    payload = {
        "index": outcome.index,
        "blocks": outcome.blocks,
        "completed_count": outcome.completed_count,
        "max_depth": outcome.max_depth,
        "paths": [[path.path_id, path.status, enc.value(path.return_value),
                   [_encode_record(record, enc) for record in path.records]]
                  for path in outcome.paths],
        "first_success": (encode_state(outcome.first_success, enc,
                                       include_trace=False)
                          if outcome.first_success is not None else None),
        "first_completed": (encode_state(outcome.first_completed, enc,
                                         include_trace=False)
                            if outcome.first_completed is not None
                            else None),
        "entry_updates": [[name, address]
                          for name, address in outcome.entry_updates],
        "dma_added": [[base, size] for base, size in outcome.dma_added],
        "covered_new": list(outcome.covered_new),
        "counters": counters,
    }
    return {"payload": payload, "exprs": enc.exprs, "blocks": enc.blocks}


def decode_outcome(message, concrete_read):
    from repro.pipeline.artifact import _Decoder, _decode_record
    from repro.revnic.trace import PathTrace

    dec = _Decoder(message["exprs"], message["blocks"])
    payload = message["payload"]
    counters = dict(payload["counters"])
    counters["hw_read_counts"] = {kind: count for kind, count
                                  in counters["hw_read_counts"]}
    counters["hw_write_counts"] = {kind: count for kind, count
                                   in counters["hw_write_counts"]}
    paths = [PathTrace(path_id=path_id,
                       records=[_decode_record(record, dec)
                                for record in records],
                       status=status,
                       return_value=dec.value(return_value))
             for path_id, status, return_value, records
             in payload["paths"]]
    first_success = payload["first_success"]
    if first_success is not None:
        first_success = decode_state(first_success, dec, concrete_read)
    first_completed = payload["first_completed"]
    if first_completed is not None:
        first_completed = decode_state(first_completed, dec, concrete_read)
    return SubtreeOutcome(
        index=payload["index"], paths=paths, blocks=payload["blocks"],
        completed_count=payload["completed_count"],
        max_depth=payload["max_depth"],
        first_success=first_success, first_completed=first_completed,
        entry_updates=[(name, address)
                       for name, address in payload["entry_updates"]],
        dma_added=[tuple(region) for region in payload["dma_added"]],
        covered_new=list(payload["covered_new"]),
        counters=counters)


# ==========================================================================
# Worker-side bootstrap (SupervisedPool setup target; must be picklable)

def config_to_dict(config):
    """A :class:`RevNicConfig` as a plain nested dict (worker bootstrap)."""
    from dataclasses import asdict

    return asdict(config)


def config_from_dict(data):
    from repro.hw.base import PciDescriptor
    from repro.revnic.engine import RevNicConfig

    data = dict(data)
    pci = data.get("pci")
    if isinstance(pci, dict):
        data["pci"] = PciDescriptor(**pci)
    skip = data.get("skip_functions") or {}
    data["skip_functions"] = {
        name: tuple(value) if isinstance(value, (list, tuple)) else value
        for name, value in skip.items()}
    return RevNicConfig(**data)


def worker_setup(bootstrap):
    """SupervisedPool setup target: rebuild the per-process context from
    ``(image bytes, config dict)`` and return the chunk runner.

    The machine, translator and decoded image persist across every chunk
    (and phase) the worker serves -- sub-trees only ever read them.
    """
    from repro.asm.binfmt import DrvImage
    from repro.dbt import Translator
    from repro.guestos.loader import load_image
    from repro.revnic.coverage import static_basic_blocks
    from repro.vm.machine import Machine

    image_bytes, config_dict = bootstrap
    image = DrvImage.from_bytes(image_bytes)
    config = config_from_dict(config_dict)
    machine = Machine()
    loaded = load_image(machine, image)
    translator = Translator(
        lambda addr, size: machine.memory.read_bytes(addr, size))
    ctx = SubtreeContext(
        translator=translator, concrete_read=machine.memory.read,
        import_names=loaded.import_names, pci=config.pci, config=config,
        text_base=loaded.text_base, text_end=loaded.text_end,
        leaders=static_basic_blocks(image, loaded.text_base))

    def run_chunk(message, fault=None):
        chunk = decode_chunk(message, ctx.concrete_read)
        return encode_outcome(explore_subtree(ctx, chunk))

    return run_chunk
