"""Symbolic executor: runs IR translation blocks over symbolic states.

One :meth:`SymExecutor.step` executes the translation block at the state's
``pc`` and resolves the terminator, forking on symbolic branch conditions.
Hardware reads are answered by a :class:`HardwarePolicy` (the shell device
returns fresh symbols), and calls into the import-thunk window are *not*
executed here -- they surface as :class:`StepEvent` so the engine can run
the concrete OS handler at the symbolic/concrete boundary.

Selective symbolic execution assumes cheap concrete execution around the
symbolic core (paper section 3): on all-concrete stretches -- no symbol in
any register the block reads, no device/DMA access, every memory byte read
concrete -- :meth:`SymExecutor.step` takes a **concrete fast path**, running
the block's compiled function (:mod:`repro.ir.compile`) against a buffered
environment and committing its effects only on success.  The moment a
symbol flows in (a symbolic register, device read, or symbolic memory
byte) the attempt is discarded -- nothing external was mutated -- and the
block re-executes through the symbolic op walker, so traces, constraints,
forks, and every deterministic counter are identical with the fast path
on or off.

The fast path compiles blocks through :func:`repro.ir.compile.compile_block`.
Superblock chaining is deliberately *not* applied here -- per-block
stepping (``count_block``, ``blocks_executed``, the per-block tracer
records) is part of the artifact byte contract, and fusing blocks would
change it.
"""

from dataclasses import dataclass

from repro.errors import VmFault
from repro.ir import nodes as N
from repro.ir.compile import compile_block
from repro.layout import RETURN_TO_OS, import_index, is_mmio
from repro.symex import expr as E
from repro.symex.solver import UNSAT
from repro.symex.state import PathStatus
from repro.vm.bus import NO_DEVICES
from repro.vm.memory import NEVER_HIT


class HardwarePolicy:
    """Decides what device reads return during symbolic execution.

    The default is the paper's *symbolic hardware*: every read from a
    device register (port or MMIO) or from DMA-registered memory returns a
    fresh unconstrained symbol (section 3.4).

    Accesses are accounted with bounded per-kind counters (``read_counts``
    / ``write_counts``), surfaced in the engine's run stats.  A full
    access log grows with every executed block across all phases and no
    pipeline stage consumes it, so retention is opt-in: pass
    ``retain_log=True`` (interactive inspection, the symbolic-hardware
    demo) to additionally keep ``reads`` / ``writes`` lists.
    """

    def __init__(self, retain_log=False):
        self._counter = 0
        self.read_counts = {}       # kind -> count
        self.write_counts = {}      # kind -> count
        self.retain_log = retain_log
        self.reads = [] if retain_log else None
        self.writes = [] if retain_log else None

    @property
    def reads_total(self):
        return sum(self.read_counts.values())

    @property
    def writes_total(self):
        return sum(self.write_counts.values())

    def fresh(self, tag, width):
        self._counter += 1
        name = "hw_%s_%d" % (tag, self._counter)
        return E.bv_sym(name, width * 8)

    def device_read(self, state, kind, address, width):
        """Return the value of a device read (symbolic by default)."""
        self.read_counts[kind] = self.read_counts.get(kind, 0) + 1
        if self.retain_log:
            self.reads.append((kind, address, width))
        return E.bv_zext(self.fresh("%s_%x" % (kind, address), width), 32)

    def device_write(self, state, kind, address, width, value):
        """Observe a device write (the shell device has no behaviour)."""
        self.write_counts[kind] = self.write_counts.get(kind, 0) + 1
        if self.retain_log:
            self.writes.append((kind, address, width, value))


@dataclass
class StepEvent:
    """Non-local outcome of a step, handled by the engine."""

    kind: str            # 'import-call' | 'completed' | 'halted' | 'error'
    state: object
    slot: int = 0        # import slot for 'import-call'
    detail: str = ""


@dataclass
class MemAccess:
    """One memory/port access observed during a block (wiretap record)."""

    kind: str            # 'ram' | 'mmio' | 'port' | 'dma'
    address: int
    width: int
    value: object        # int or Expr
    is_write: bool


class _Bail(Exception):
    """A symbol flowed into the concrete fast path: discard and go
    symbolic."""


class _FastEnv:
    """Buffered all-concrete block environment.

    Every effect lands in private buffers (a register-file copy, a
    byte-granular write log, an access record list); the state is only
    mutated on commit, so abandoning the attempt at any point -- a
    symbolic byte, a device access, a guest fault -- leaves the state
    untouched for an exact symbolic re-execution.
    """

    __slots__ = ("regs", "accesses", "_memory", "_writes", "_is_dma",
                 "ops_retired", "instrs_retired", "io_ops", "mem_ops")

    #: Compiled blocks must reach the buffered callables below, never a
    #: memory region or a device directly.
    ram = NEVER_HIT
    devices = NO_DEVICES

    def __init__(self, state, is_dma):
        self.regs = list(state.regs)
        self.accesses = []
        self._memory = state.memory
        self._writes = {}         # address -> concrete byte
        self._is_dma = is_dma
        self.ops_retired = 0
        self.instrs_retired = 0
        self.io_ops = 0
        self.mem_ops = 0

    @staticmethod
    def is_device_address(address):
        # Device accesses never reach the counting path: mem_read /
        # mem_write bail first.
        return False

    def mem_read(self, address, width):
        if is_mmio(address) or self._is_dma(address):
            raise _Bail
        writes = self._writes
        memory = self._memory
        value = 0
        for i in range(width):
            byte = writes.get(address + i)
            if byte is None:
                byte = memory.read_byte(address + i)
                if not isinstance(byte, int):
                    raise _Bail
            value |= (byte & 0xFF) << (8 * i)
        self.accesses.append(MemAccess("ram", address, width, value, False))
        return value

    def mem_write(self, address, width, value):
        if is_mmio(address) or self._is_dma(address):
            raise _Bail
        writes = self._writes
        for i in range(width):
            writes[address + i] = (value >> (8 * i)) & 0xFF
        self.accesses.append(MemAccess("ram", address, width, value, True))

    def io_read(self, port, width):
        raise _Bail

    def io_write(self, port, width, value):
        raise _Bail

    def commit(self, state):
        state.regs[:] = self.regs
        write_byte = state.memory.write_byte
        for address, byte in self._writes.items():
            write_byte(address, byte)


def _fast_meta(block):
    """(eligible, read_regs) for the fast path, cached on the block."""
    meta = getattr(block, "_fast_meta", None)
    if meta is None:
        has_io = any(isinstance(op, (N.IrIn, N.IrOut)) for op in block.ops)
        read_regs = tuple({op.reg for op in block.ops
                           if isinstance(op, N.IrGetReg)})
        meta = (not has_io, read_regs)
        block._fast_meta = meta
    return meta


def _no_dma(address):
    return False


class SymExecutor:
    """Executes translation blocks symbolically."""

    def __init__(self, translator, solver, hardware=None, tracer=None,
                 is_dma_address=None, concrete_fast_path=True):
        self.translator = translator
        self.solver = solver
        self.hardware = hardware or HardwarePolicy()
        self.tracer = tracer
        #: DMA membership: the shell device's region list, which every
        #: path's DMA allocations register in.
        self._is_dma = is_dma_address or _no_dma
        self.blocks_executed = 0
        self.forks = 0
        #: run fully concrete blocks through their compiled functions
        self.concrete_fast_path = concrete_fast_path
        #: blocks that completed on the concrete fast path
        self.fast_blocks = 0

    # ------------------------------------------------------------------

    def step(self, state):
        """Execute one block on ``state``.

        Returns ``(successors, events)``: follow-on RUNNING states and any
        boundary events (import calls, completions, errors).
        """
        block = self.translator.get(state.pc)
        state.count_block(block.pc)
        self.blocks_executed += 1
        regs_before = list(state.regs)

        if self.concrete_fast_path:
            outcome = self._step_concrete(state, block, regs_before)
            if outcome is not None:
                return outcome

        accesses = []

        temps = {}
        term_info = None
        for op in block.ops:
            term_info = self._exec_op(state, op, temps, accesses)
            if state.status != PathStatus.RUNNING:
                break
            if term_info is not None:
                break

        if self.tracer is not None:
            self.tracer.on_block(state, block, regs_before, list(state.regs),
                                 accesses, term_info)

        if state.status != PathStatus.RUNNING:
            return [], [StepEvent("error", state, detail="fault in block")]
        if term_info is None:
            # Block without terminator: fall through.
            state.pc = block.end_pc
            return [state], []
        return self._resolve_terminator(state, term_info, temps)

    # ------------------------------------------------------------------
    # Concrete fast path

    def _step_concrete(self, state, block, regs_before):
        """Try the block on the compiled concrete tier.

        Returns the step outcome, or ``None`` to fall back to symbolic
        execution (ineligible block, a symbol flowed in, or a guest fault
        -- the buffered attempt leaves no trace, so the symbolic re-run
        reproduces the exact interpreter behaviour, fault included).
        """
        eligible, read_regs = _fast_meta(block)
        if not eligible:
            return None
        regs = state.regs
        for reg in read_regs:
            if not isinstance(regs[reg], int):
                return None
        env = _FastEnv(state, self._is_dma)
        try:
            result = compile_block(block)(env)
        except (_Bail, VmFault):
            # A symbol flowed in, or the block faulted (divide by zero,
            # unmapped memory): the buffered attempt left no trace, so
            # the symbolic re-run reproduces the interpreter's exact
            # behaviour, partial effects and fault included.  Anything
            # else is a genuine bug and propagates loudly.
            return None
        env.commit(state)
        self.fast_blocks += 1

        if self.tracer is not None:
            term = block.terminator
            if isinstance(term, N.IrCondJump):
                # The compiled function already resolved the branch; the
                # reconstructed flag is exact unless target == fallthrough
                # (a branch to the next instruction), where either value
                # describes the same transfer -- tracers only consume the
                # terminator kind and the resolved control flow.
                taken = 1 if result.target == term.target else 0
                term_info = ("condjump", taken, term.target,
                             term.fallthrough)
            elif isinstance(term, N.IrJump):
                term_info = ("jump", result.target)
            elif isinstance(term, N.IrCall):
                term_info = ("call", result.target, term.return_pc)
            elif isinstance(term, N.IrRet):
                term_info = ("ret", result.target)
            elif isinstance(term, N.IrHalt):
                term_info = ("halt",)
            else:
                term_info = None      # split-block head: fall-through
            self.tracer.on_block(state, block, regs_before,
                                 list(state.regs), env.accesses, term_info)

        kind = result.kind
        if kind == "jump":
            state.pc = result.target
            return [state], []
        if kind == "call":
            slot = import_index(result.target)
            if slot is not None:
                return [], [StepEvent("import-call", state, slot=slot)]
            state.pc = result.target
            return [state], []
        if kind == "ret":
            if result.target == RETURN_TO_OS:
                state.status = PathStatus.COMPLETED
                state.return_value = state.regs[0]
                return [], [StepEvent("completed", state)]
            state.pc = result.target
            return [state], []
        state.status = PathStatus.HALTED
        return [], [StepEvent("halted", state)]

    # ------------------------------------------------------------------
    # Op execution

    def _exec_op(self, state, op, temps, accesses):
        from repro.ir import nodes as N

        if isinstance(op, N.IrConst):
            temps[op.dst] = op.value
        elif isinstance(op, N.IrGetReg):
            temps[op.dst] = state.regs[op.reg]
        elif isinstance(op, N.IrSetReg):
            state.regs[op.reg] = temps[op.src]
        elif isinstance(op, N.IrBin):
            temps[op.dst] = self._binop(state, op, temps)
        elif isinstance(op, N.IrNot):
            temps[op.dst] = E.bv_not(temps[op.a])
        elif isinstance(op, N.IrNeg):
            temps[op.dst] = E.bv_neg(temps[op.a])
        elif isinstance(op, N.IrCmp):
            temps[op.dst] = E.bv_cmp(op.kind.value, temps[op.a], temps[op.b])
        elif isinstance(op, N.IrLoad):
            temps[op.dst] = self._load(state, temps[op.addr], op.width,
                                       accesses)
        elif isinstance(op, N.IrStore):
            self._store(state, temps[op.addr], op.width, temps[op.src],
                        accesses)
        elif isinstance(op, N.IrIn):
            temps[op.dst] = self._io_in(state, temps[op.port], op.width,
                                        accesses)
        elif isinstance(op, N.IrOut):
            self._io_out(state, temps[op.port], op.width, temps[op.src],
                         accesses)
        elif isinstance(op, N.IrJump):
            target = temps[op.target] if op.indirect else op.target
            return ("jump", target)
        elif isinstance(op, N.IrCondJump):
            return ("condjump", temps[op.cond], op.target, op.fallthrough)
        elif isinstance(op, N.IrCall):
            target = temps[op.target] if op.indirect else op.target
            return ("call", target, op.return_pc)
        elif isinstance(op, N.IrRet):
            return ("ret", temps[op.addr])
        elif isinstance(op, N.IrHalt):
            return ("halt",)
        else:  # pragma: no cover
            raise TypeError("unknown IR op %r" % (op,))
        return None

    def _binop(self, state, op, temps):
        from repro.ir.nodes import BinKind

        a, b = temps[op.a], temps[op.b]
        if op.kind in (BinKind.DIVU, BinKind.REMU):
            if isinstance(b, int):
                if b == 0:
                    state.status = PathStatus.ERROR
                    return 0
            else:
                # Constrain the divisor nonzero; the divide-by-zero path is
                # an error state RevNIC simply terminates (section 3.2).
                constraint = E.bv_cmp("ne", b, 0)
                witness = self.solver.check_context(
                    state.solver_ctx, constraint, prefer=state.model_hint)
                state.add_constraint(constraint, model=witness)
                if witness is None:
                    state.status = PathStatus.ERROR
                    return 0
        return E.BINOP_BUILDERS[op.kind.value](a, b)

    # ------------------------------------------------------------------
    # Memory and I/O

    def _concretize_address(self, state, value, what):
        """Concretize a symbolic address/port, constraining the path to the
        chosen value (the paper "avoids the complexity of dealing with
        symbolic addresses by concretizing them")."""
        if isinstance(value, int):
            return value
        concrete, model = self.solver.concretize_context(
            state.solver_ctx, value, prefer=state.model_hint)
        if concrete is None:
            state.status = PathStatus.ERROR
            return None
        state.add_constraint(E.bv_cmp("eq", value, concrete), model=model)
        state.model_hint.update(model)
        return concrete

    def _load(self, state, address, width, accesses):
        address = self._concretize_address(state, address, "load")
        if address is None:
            return 0
        if is_mmio(address):
            value = self.hardware.device_read(state, "mmio", address, width)
            accesses.append(MemAccess("mmio", address, width, value, False))
            return value
        if self._is_dma(address):
            value = self.hardware.device_read(state, "dma", address, width)
            accesses.append(MemAccess("dma", address, width, value, False))
            return value
        value = state.memory.read(address, width)
        accesses.append(MemAccess("ram", address, width, value, False))
        return value

    def _store(self, state, address, width, value, accesses):
        address = self._concretize_address(state, address, "store")
        if address is None:
            return
        if is_mmio(address):
            self.hardware.device_write(state, "mmio", address, width, value)
            accesses.append(MemAccess("mmio", address, width, value, True))
            return
        if self._is_dma(address):
            # Writes to DMA regions land in (symbolic) memory so the driver
            # can read back descriptors it wrote.
            state.memory.write(address, width, value)
            accesses.append(MemAccess("dma", address, width, value, True))
            return
        state.memory.write(address, width, value)
        accesses.append(MemAccess("ram", address, width, value, True))

    def _io_in(self, state, port, width, accesses):
        port = self._concretize_address(state, port, "in")
        if port is None:
            return 0
        value = self.hardware.device_read(state, "port", port, width)
        accesses.append(MemAccess("port", port, width, value, False))
        return value

    def _io_out(self, state, port, width, value, accesses):
        port = self._concretize_address(state, port, "out")
        if port is None:
            return
        self.hardware.device_write(state, "port", port, width, value)
        accesses.append(MemAccess("port", port, width, value, True))

    # ------------------------------------------------------------------
    # Terminators

    def _resolve_terminator(self, state, info, temps):
        kind = info[0]
        if kind == "jump":
            target = self._concretize_address(state, info[1], "jump")
            if target is None:
                return [], [StepEvent("error", state)]
            state.pc = target
            return [state], []
        if kind == "condjump":
            return self._branch(state, info[1], info[2], info[3])
        if kind == "call":
            target = self._concretize_address(state, info[1], "call")
            if target is None:
                return [], [StepEvent("error", state)]
            slot = import_index(target)
            if slot is not None:
                return [], [StepEvent("import-call", state, slot=slot)]
            state.pc = target
            return [state], []
        if kind == "ret":
            target = self._concretize_address(state, info[1], "ret")
            if target is None:
                return [], [StepEvent("error", state)]
            if target == RETURN_TO_OS:
                state.status = PathStatus.COMPLETED
                state.return_value = state.regs[0]
                return [], [StepEvent("completed", state)]
            state.pc = target
            return [state], []
        if kind == "halt":
            state.status = PathStatus.HALTED
            return [], [StepEvent("halted", state)]
        raise TypeError("unknown terminator %r" % (info,))  # pragma: no cover

    def _branch(self, state, cond, target, fallthrough):
        if isinstance(cond, int):
            state.pc = target if cond else fallthrough
            return [state], []
        # A symbolic branch whose successor was already executed by this
        # state is a polling-loop back edge: mark both sides as loop
        # suspects so the scheduler's killer may cull re-iterating paths.
        for successor in (target, fallthrough):
            if state.block_counts.get(successor, 0) > 0:
                state.loop_suspects.add(successor)
        taken_constraint = cond
        not_taken = E.bool_not(cond)
        # Incremental feasibility: each probe first evaluates just the new
        # constraint under the path's accumulated witness model (a few
        # compiled-program steps) and only falls into a component solve on
        # failure; components the condition does not touch are never
        # revisited.  The returned witness is cached on whichever side the
        # constraint is committed to, keeping descendants on the fast path.
        hint = state.model_hint
        taken_model = self.solver.check_context(state.solver_ctx,
                                                taken_constraint,
                                                prefer=hint)
        taken_verdict = self.solver.verdict
        fall_model = self.solver.check_context(state.solver_ctx, not_taken,
                                               prefer=hint)
        successors = []
        if taken_model is not None and fall_model is not None:
            child = state.fork()
            self.forks += 1
            if self.tracer is not None:
                self.tracer.on_fork(state, child)
            child.add_constraint(taken_constraint, model=taken_model)
            child.pc = target
            state.add_constraint(not_taken, model=fall_model)
            state.pc = fallthrough
            successors = [state, child]
        elif taken_model is not None:
            state.add_constraint(taken_constraint, model=taken_model)
            state.pc = target
            successors = [state]
        elif fall_model is not None:
            state.add_constraint(not_taken, model=fall_model)
            state.pc = fallthrough
            successors = [state]
        else:
            # Neither side has a model.  Only two proven-UNSAT sides make
            # the branch infeasible; otherwise the solver gave up on one.
            state.status = PathStatus.ERROR
            proven = taken_verdict == self.solver.verdict == UNSAT
            detail = "infeasible branch" if proven else "unknown branch"
            return [], [StepEvent("error", state, detail=detail)]
        return successors, []
