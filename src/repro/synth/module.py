"""The synthesized driver: an executable module of recovered functions.

The paper pastes generated C into per-OS templates and compiles.  Here the
equivalent executable artifact is an IR module: the recovered basic blocks,
runnable against any target machine through an
:class:`~repro.ir.backend.ExecutionBackend` (generated-source compiled
blocks by default, the :mod:`repro.ir.interp` tree-walker on request).  The
target-OS simulators (:mod:`repro.targetos`) provide the template
boilerplate around it and an ``os_interface`` that answers the driver's OS
API calls -- the "pasting into the template" step.

:func:`synthesize` needs no live engine: it consumes a
:class:`~repro.revnic.engine.RevNicResult` (or a deserialized
:class:`~repro.pipeline.artifact.RunArtifact`'s view of one) carrying the
trace, the import-slot names and a captured
:class:`~repro.dbt.translator.CodeWindow` of driver text, which also
powers the DBT fallback that fills flagged unexplored blocks.  Because
the module is otherwise built *only* from the wiretap trace of the
original binary, running it is a genuine end-to-end test of the
reverse-engineering pipeline: any block RevNIC failed to capture raises
:class:`MissingBlockError` when reached (the paper's "missing basic
blocks" developer warning).
"""

from dataclasses import dataclass, field

from repro.errors import SynthesisError
from repro.ir.backend import get_backend
from repro.isa.registers import REG_SP
from repro.layout import RETURN_TO_OS, import_index
from repro.revnic.trace import Trace
from repro.synth.cfg import CfgBuilder
from repro.synth.cgen import RUNTIME_HEADER, generate_c
from repro.synth.defuse import analyze_signatures
from repro.synth.report import build_report


#: Instruction budget handed to superblocks by the synthesized runtime:
#: its budget unit is *blocks*, so the instruction guard never binds.
_NO_INSTR_BUDGET = 1 << 62

#: Absent-key sentinel for the superblock dispatch fast path (``None``
#: in that dict means a declined head, so it cannot double as "miss").
_SB_MISS = object()


class MissingBlockError(SynthesisError):
    """The synthesized driver reached code RevNIC never captured."""

    def __init__(self, address):
        self.address = address
        super().__init__("reached unsynthesized block 0x%08x" % address)


@dataclass
class SynthesizedDriver:
    """The complete synthesis output for one driver."""

    name: str
    functions: dict                 # entry pc -> RecoveredFunction
    entry_points: dict              # role name -> entry pc
    c_source: str
    c_per_function: dict
    report: object
    import_names: dict              # slot -> OS API name
    #: every recovered basic block: pc -> TranslationBlock
    block_map: dict = field(default_factory=dict)

    runtime_header = RUNTIME_HEADER

    def function_for_role(self, role):
        entry = self.entry_points.get(role)
        return self.functions.get(entry) if entry is not None else None

    # ------------------------------------------------------------------

    def run_entry(self, role, env, args, os_interface, max_blocks=200_000,
                  backend=None, superblocks=None):
        """Execute entry point ``role`` with stack ``args`` in ``env``.

        ``env`` is an :class:`~repro.ir.interp.IrEnv` over the *target*
        machine; ``os_interface.call(name, arg_reader) -> (retval, nargs)``
        answers OS API calls (the template's adaptation layer).
        ``backend`` selects the execution tier (compiled blocks by
        default; ``"interp"`` tree-walks); ``superblocks`` gates the
        superblock tier on the compiled backend (``None`` follows the
        ``REVNIC_SUPERBLOCKS`` environment default).  Returns r0.
        """
        entry = self.entry_points.get(role)
        if entry is None:
            raise SynthesisError("no synthesized entry point %r" % role)
        return self.run_function(entry, env, args, os_interface, max_blocks,
                                 backend=backend, superblocks=superblocks)

    def _superblock_manager(self, superblocks):
        """The lazily built static-flavour superblock manager (shared by
        every run over this driver's immutable block map), or ``None``
        when the tier is off."""
        from repro.ir.superblock import (SuperblockConfig,
                                         SuperblockManager,
                                         superblocks_enabled)

        if superblocks is None:
            if not superblocks_enabled():
                return None
            config = None
        elif superblocks is False:
            return None
        elif superblocks is True:
            config = None
        elif isinstance(superblocks, SuperblockConfig):
            config = superblocks
        else:
            return None
        manager = getattr(self, "_sb_manager", None)
        if manager is None:
            manager = SuperblockManager(self.block_map.get, "static",
                                        config=config)
            self._sb_manager = manager
        return manager

    def run_function(self, entry, env, args, os_interface,
                     max_blocks=200_000, backend=None, superblocks=None):
        """Call a recovered function at ``entry`` (stdcall protocol)."""
        backend = get_backend(backend)
        run = backend.run
        manager = self._superblock_manager(superblocks) \
            if backend.name == "compiled" else None
        sp = env.regs[REG_SP]
        for value in reversed(args):
            sp -= 4
            env.mem_write(sp, 4, value)
        sp -= 4
        env.mem_write(sp, 4, RETURN_TO_OS)
        env.regs[REG_SP] = sp
        # Steady-state fast path: the manager's static-flavour dispatch
        # dict resolves hot heads (and declined ones) with one dict
        # probe; only cold pcs pay the profiling lookup() call.
        dispatch = manager.dispatch if manager is not None else None
        pc = entry
        blocks_run = 0
        while blocks_run < max_blocks:
            if dispatch is None:
                sb = None
            else:
                sb = dispatch.get(pc, _SB_MISS)
                if sb is _SB_MISS:
                    sb = manager.lookup(pc)
            if sb is not None:
                # Fused hot chain: exits at exactly the block boundary
                # (and block count) the per-block loop would reach, so
                # the block budget below stays an exact contract.
                result, members, _instrs = sb.fn(
                    env, _NO_INSTR_BUDGET, max_blocks - blocks_run)
                blocks_run += members
            else:
                block = self.block_map.get(pc)
                if block is None:
                    raise MissingBlockError(pc)
                result = run(block, env)
                blocks_run += 1
            if result.kind == "halt":
                raise SynthesisError("synthesized driver executed HALT")
            if result.kind == "call":
                slot = import_index(result.target)
                if slot is not None:
                    pc = self._os_call(slot, env, os_interface)
                    if pc == RETURN_TO_OS:
                        break
                    continue
                pc = result.target
                continue
            if result.kind == "ret":
                if result.target == RETURN_TO_OS:
                    break
                pc = result.target
                continue
            pc = result.target
        else:
            raise SynthesisError("synthesized driver exceeded block budget")
        return env.regs[0]

    def _os_call(self, slot, env, os_interface):
        name = self.import_names.get(slot)
        if name is None:
            raise SynthesisError("call to unknown import slot %d" % slot)
        sp = env.regs[REG_SP]

        def arg_reader(index):
            return env.mem_read(sp + 4 + 4 * index, 4)

        retval, nargs = os_interface.call(name, arg_reader)
        env.regs[0] = retval & 0xFFFFFFFF
        return_addr = env.mem_read(sp, 4)
        env.regs[REG_SP] = sp + 4 + 4 * nargs
        return return_addr


def synthesize(result_or_trace, driver_name=None, import_names=None,
               translator=None, code=None):
    """Run the full synthesis pipeline on a RevNIC result (or raw Trace).

    When a code source is available, flagged unexplored branch targets are
    filled by forcing translation at those addresses -- the paper's
    fallback for missing basic blocks ("the developer can request QEMU's
    DBT to generate the missing translation blocks by forcing the program
    counter to take the address of the unexplored block", section 4.1).
    The blocks remain flagged in the report; only the executable module is
    completed.

    The preferred code source is ``code``, a captured
    :class:`~repro.dbt.translator.CodeWindow` -- a :class:`RevNicResult`
    carries one, so synthesis needs no live engine and works on
    deserialized run artifacts.  ``import_names`` likewise defaults to the
    ones recorded on the result.  Passing a live engine ``translator``
    still works for ad-hoc use.

    Returns a :class:`SynthesizedDriver`.
    """
    is_result = hasattr(result_or_trace, "trace")
    trace = result_or_trace.trace if is_result else result_or_trace
    if not isinstance(trace, Trace):
        raise SynthesisError("synthesize() needs a Trace or RevNicResult")
    name = driver_name or trace.driver_name
    if is_result:
        if code is None:
            code = getattr(result_or_trace, "code", None)
        if import_names is None:
            import_names = getattr(result_or_trace, "import_names", None)
    if translator is None and code is not None:
        translator = code.translator()

    builder = CfgBuilder(trace)
    functions = builder.build()
    analyze_signatures(functions, builder)

    block_map = {}
    for function in functions.values():
        for pc, block in function.blocks.items():
            existing = block_map.get(pc)
            if existing is None or len(block.instr_addrs) > \
                    len(existing.instr_addrs):
                block_map[pc] = block

    entry_points = {}
    for role, address in trace.entry_points.items():
        if address in functions:
            entry_points[role] = address

    filled = 0
    if translator is not None:
        filled = _fill_unexplored(block_map, functions, trace, translator)

    import_names = dict(import_names or {})
    c_source, per_function = generate_c(functions, name, import_names)
    report = build_report(name, trace, functions)
    report.dbt_filled_blocks = filled

    return SynthesizedDriver(
        name=name,
        functions=functions,
        entry_points=entry_points,
        c_source=c_source,
        c_per_function=per_function,
        report=report,
        import_names=import_names,
        block_map=block_map,
    )


def _fill_unexplored(block_map, functions, trace, translator,
                     max_blocks=512):
    """Translate flagged unexplored targets (and what they reach) into the
    executable block map.  Bounded breadth-first closure over driver text."""
    text_base = trace.text_base
    text_end = text_base + trace.text_size

    def in_text(address):
        return text_base <= address < text_end

    worklist = []
    for function in functions.values():
        worklist.extend(t for t in function.unexplored_targets if in_text(t))
    # Call fall-throughs whose callee never returned during exploration.
    for block in list(block_map.values()):
        term = block.terminator
        if term.__class__.__name__ == "IrCall" \
                and block.end_pc not in block_map and in_text(block.end_pc):
            worklist.append(block.end_pc)
    filled = 0
    while worklist and filled < max_blocks:
        address = worklist.pop()
        if address in block_map or not in_text(address):
            continue
        # Skip addresses interior to an already-recovered block (execution
        # never enters them at a block boundary).
        block = translator.get(address)
        block_map[address] = block
        filled += 1
        for successor in block.static_successors():
            if in_text(successor) and successor not in block_map:
                worklist.append(successor)
        # Fall-through after calls continues at end_pc.
        term = block.terminator
        if term.__class__.__name__ == "IrCall":
            if block.end_pc not in block_map and in_text(block.end_pc):
                worklist.append(block.end_pc)
    return filled
