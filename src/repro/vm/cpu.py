"""Concrete R32 CPU: per-instruction interpreter plus a DBT mode.

One ``exec_backend`` name (:func:`repro.ir.backend.resolve_tier`) picks
the tier behind :meth:`Cpu.run`:

* ``"step"`` (the default): the historical **per-instruction
  interpreter** -- fetch/decode (with a decode cache) and dispatch one
  instruction at a time;
* **DBT mode** (``"interp"``, ``"blocks"`` or ``"compiled"``): translate
  a whole block once through the caching
  :class:`~repro.dbt.translator.Translator`, execute it through the
  tier's block runner (tree-walked, or a generated-source function), and
  chain block to block; ``"compiled"`` additionally fuses hot block
  chains into superblocks (:mod:`repro.ir.superblock`).  Counter
  semantics (``instret``, ``io_ops``, ``mem_ops``) and observable
  behaviour are identical to the interpreter on any run that returns to
  the OS.

Every tier reads guest code through caches; :meth:`Cpu.code_changed` is
the single invalidation hook loaders call after (re)writing code.
"""

import enum

from repro.errors import DecodeError, InvalidInstruction, VmFault
from repro.isa.encoding import INSTR_SIZE, NO_REG, decode
from repro.isa.opcodes import Op
from repro.isa.registers import NUM_REGS, REG_SP
from repro.layout import RETURN_TO_OS, import_index

_MASK32 = 0xFFFFFFFF


def to_signed(value):
    """Interpret a 32-bit unsigned value as signed."""
    return value - (1 << 32) if value & 0x8000_0000 else value


class ExitReason(enum.Enum):
    """Why :meth:`Cpu.run` stopped."""

    HALT = "halt"
    RETURNED_TO_OS = "returned-to-os"
    STEP_LIMIT = "step-limit"


class CpuExit(Exception):
    """Raised internally to unwind out of the execution loop."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason.value)


class Cpu:
    """Interprets R32 machine code against a :class:`~repro.vm.bus.Bus`.

    ``import_handler`` is invoked for ``CALL``s into the import-thunk
    window; it receives ``(cpu, import_index)`` and must return the number
    of 4-byte stack arguments consumed (stdcall callee-clean).

    ``exec_backend`` names the execution tier (one of
    :data:`repro.ir.backend.TIERS`; an unknown name raises
    ``ValueError`` here and on any later assignment): ``"step"`` for the
    per-instruction interpreter, ``"interp"``, ``"blocks"`` or
    ``"compiled"`` for DBT mode.
    """

    def __init__(self, bus, import_handler=None, exec_backend="step"):
        self.bus = bus
        self.import_handler = import_handler
        self.exec_backend = exec_backend
        self.regs = [0] * NUM_REGS
        self.pc = 0
        #: Retired instruction count (performance-model input).
        self.instret = 0
        #: Device (port/MMIO) access count.
        self.io_ops = 0
        #: Regular memory access count.
        self.mem_ops = 0
        self._decode_cache = {}
        self._translator = None
        self._sb_manager = None

    @property
    def exec_backend(self):
        return self._exec_backend

    @exec_backend.setter
    def exec_backend(self, name):
        from repro.ir.backend import resolve_tier

        self._tier = resolve_tier(name)
        self._exec_backend = name

    # ------------------------------------------------------------------
    # Register / stack helpers

    @property
    def sp(self):
        return self.regs[REG_SP]

    @sp.setter
    def sp(self, value):
        self.regs[REG_SP] = value & _MASK32

    def push(self, value):
        """Push a 32-bit value."""
        self.sp = (self.sp - 4) & _MASK32
        self.bus.memory.write(self.sp, 4, value)

    def pop(self):
        """Pop a 32-bit value."""
        value = self.bus.memory.read(self.sp, 4)
        self.sp = (self.sp + 4) & _MASK32
        return value

    def read_stack_arg(self, slot):
        """Read stdcall argument ``slot`` (0-based) relative to the current
        ``sp`` (valid immediately after a CALL pushed the return address)."""
        return self.bus.memory.read(self.sp + 4 + 4 * slot, 4)

    def code_changed(self):
        """One invalidation hook for every code-derived cache.

        Loaders call this after (re)writing guest code; it drops both the
        per-instruction decode cache and DBT mode's translated/compiled
        blocks, so neither tier can serve stale translations.
        """
        self._decode_cache.clear()
        if self._translator is not None:
            self._translator.invalidate()
        if self._sb_manager is not None:
            self._sb_manager.invalidate()

    # ------------------------------------------------------------------
    # Execution

    def run(self, max_steps=5_000_000):
        """Run until HALT, a return to the OS, or the step limit.

        Returns the :class:`ExitReason`.  Guest faults propagate as
        :class:`~repro.errors.VmFault`.
        """
        if self._exec_backend != "step":
            return self._run_dbt(max_steps)
        steps = 0
        try:
            while steps < max_steps:
                self.step()
                steps += 1
        except CpuExit as exit_info:
            return exit_info.reason
        return ExitReason.STEP_LIMIT

    def _run_dbt(self, max_steps):
        """DBT mode: translate once, execute through the backend, chain.

        The translator revalidates a cached block's bytes before serving
        it (mid-block patches retranslate); the tier's block runner then
        runs the block's compiled function (or tree-walks it) against an
        adapter that drives this CPU's registers, bus, and counters.  In
        the ``"compiled"`` tier, hot heads additionally dispatch through
        the superblock tier (:mod:`repro.ir.superblock`): one fused function
        covering a profiled chain of blocks, revalidated against guest
        bytes before every run and exiting at the exact block boundary
        per-block dispatch would reach on any violated assumption.
        """
        from repro.dbt.translator import Translator

        if self._translator is None:
            self._translator = Translator(self.bus.memory.read_bytes)
        get_block = self._translator.get
        run, superblocks = self._tier
        manager = None
        if superblocks:
            if self._sb_manager is None:
                from repro.ir.superblock import SuperblockManager
                self._sb_manager = SuperblockManager(
                    get_block, "dynamic",
                    read_code=self.bus.memory.read_bytes,
                    epoch_source=self.bus.memory)
            manager = self._sb_manager
        # Fresh adapter per run: callers may swap the register list
        # between runs (NdisEnv.invoke restores saved registers).
        env = _CpuEnv(self)
        steps = 0
        try:
            while steps < max_steps:
                sb = manager.lookup(self.pc) if manager is not None \
                    else None
                if sb is not None:
                    result, members, instrs = sb.fn(
                        env, max_steps - steps, max_steps)
                    steps += instrs
                    # ``members`` is a running total: a loop chain
                    # counts every iteration's members.
                    last_block = sb.blocks[(members - 1) % len(sb.blocks)]
                else:
                    try:
                        block = get_block(self.pc)
                    except DecodeError as exc:
                        # Undecodable first instruction: the per-step
                        # tier wraps decode failures the same way.
                        # Fetch faults (MemoryFault from unmapped code)
                        # propagate raw, exactly like the interpreter's
                        # _fetch.
                        raise InvalidInstruction(
                            "bad instruction at 0x%08x: %s"
                            % (self.pc, exc)) from exc
                    result = run(block, env)
                    steps += len(block.instr_addrs)
                    last_block = block
                kind = result.kind
                if kind == "jump":
                    self.pc = result.target
                elif kind == "call":
                    target = result.target
                    slot = import_index(target)
                    if slot is None:
                        self.pc = target
                    else:
                        # The interpreter dispatches imports with ``pc``
                        # still at the CALL site (ApiCallRecord.caller_pc
                        # reads it); the terminating block's last
                        # instruction is that CALL.
                        self.pc = last_block.instr_addrs[-1]
                        self.pc = self._dispatch_import(slot)
                elif kind == "ret":
                    if result.target == RETURN_TO_OS:
                        self.pc = result.target
                        raise CpuExit(ExitReason.RETURNED_TO_OS)
                    self.pc = result.target
                else:  # halt
                    self.pc = last_block.instr_addrs[-1]
                    raise CpuExit(ExitReason.HALT)
        except CpuExit as exit_info:
            return exit_info.reason
        return ExitReason.STEP_LIMIT

    def step(self):
        """Execute one instruction."""
        instr = self._fetch(self.pc)
        next_pc = (self.pc + INSTR_SIZE) & _MASK32
        self.instret += 1
        op = instr.op
        regs = self.regs

        if op == Op.NOP:
            pass
        elif op == Op.HALT:
            raise CpuExit(ExitReason.HALT)
        elif op == Op.MOV:
            regs[instr.a] = regs[instr.b]
        elif op == Op.MOVI:
            regs[instr.a] = instr.imm
        elif op == Op.LD8 or op == Op.LD16 or op == Op.LD32:
            width = 1 if op == Op.LD8 else 2 if op == Op.LD16 else 4
            address = (regs[instr.b] + instr.imm) & _MASK32
            regs[instr.a] = self.bus.mem_read(address, width)
            self._count_access(address)
        elif op == Op.ST8 or op == Op.ST16 or op == Op.ST32:
            width = 1 if op == Op.ST8 else 2 if op == Op.ST16 else 4
            address = (regs[instr.a] + instr.imm) & _MASK32
            self.bus.mem_write(address, width, regs[instr.b])
            self._count_access(address)
        elif op == Op.PUSH:
            self.push(regs[instr.a])
            self.mem_ops += 1
        elif op == Op.POP:
            regs[instr.a] = self.pop()
            self.mem_ops += 1
        elif op in _ALU_FUNCS:
            src2 = instr.imm if instr.c == NO_REG else regs[instr.c]
            regs[instr.a] = _ALU_FUNCS[op](regs[instr.b], src2)
        elif op == Op.NOT:
            regs[instr.a] = (~regs[instr.b]) & _MASK32
        elif op == Op.NEG:
            regs[instr.a] = (-regs[instr.b]) & _MASK32
        elif op in _BRANCH_FUNCS:
            if _BRANCH_FUNCS[op](regs[instr.a], regs[instr.b]):
                next_pc = instr.imm
        elif op == Op.JMP:
            next_pc = instr.imm
        elif op == Op.JMPR:
            next_pc = regs[instr.a]
        elif op == Op.CALL or op == Op.CALLR:
            target = instr.imm if op == Op.CALL else regs[instr.a]
            self.push(next_pc)
            self.mem_ops += 1
            slot = import_index(target)
            if slot is not None:
                next_pc = self._dispatch_import(slot)
            else:
                next_pc = target
        elif op == Op.RET:
            return_pc = self.pop()
            self.mem_ops += 1
            self.sp = (self.sp + instr.imm) & _MASK32
            if return_pc == RETURN_TO_OS:
                self.pc = return_pc
                raise CpuExit(ExitReason.RETURNED_TO_OS)
            next_pc = return_pc
        elif op == Op.IN8 or op == Op.IN16 or op == Op.IN32:
            width = 1 if op == Op.IN8 else 2 if op == Op.IN16 else 4
            port = (regs[instr.b] + instr.imm) & _MASK32
            regs[instr.a] = self.bus.io_read(port, width)
            self.io_ops += 1
        elif op == Op.OUT8 or op == Op.OUT16 or op == Op.OUT32:
            width = 1 if op == Op.OUT8 else 2 if op == Op.OUT16 else 4
            port = (regs[instr.a] + instr.imm) & _MASK32
            self.bus.io_write(port, width, regs[instr.b])
            self.io_ops += 1
        else:  # pragma: no cover - decode rejects unknown opcodes
            raise InvalidInstruction("unimplemented opcode %s" % op)

        self.pc = next_pc

    def _fetch(self, address):
        instr = self._decode_cache.get(address)
        if instr is None:
            raw = self.bus.memory.read_bytes(address, INSTR_SIZE)
            try:
                instr = decode(raw)
            except Exception as exc:
                raise InvalidInstruction(
                    "bad instruction at 0x%08x: %s" % (address, exc)) from exc
            self._decode_cache[address] = instr
        return instr

    def _count_access(self, address):
        if self.bus.is_device_address(address):
            self.io_ops += 1
        else:
            self.mem_ops += 1

    def _dispatch_import(self, slot):
        if self.import_handler is None:
            raise VmFault("import call with no handler installed")
        nargs = self.import_handler(self, slot)
        return_pc = self.pop()
        self.sp = (self.sp + 4 * int(nargs)) & _MASK32
        if return_pc == RETURN_TO_OS:
            self.pc = return_pc
            raise CpuExit(ExitReason.RETURNED_TO_OS)
        return return_pc


def _shift_amount(value):
    return value & 31


_ALU_FUNCS = {
    Op.ADD: lambda a, b: (a + b) & _MASK32,
    Op.SUB: lambda a, b: (a - b) & _MASK32,
    Op.AND: lambda a, b: a & b & _MASK32,
    Op.OR: lambda a, b: (a | b) & _MASK32,
    Op.XOR: lambda a, b: (a ^ b) & _MASK32,
    Op.SHL: lambda a, b: (a << _shift_amount(b)) & _MASK32,
    Op.SHR: lambda a, b: (a & _MASK32) >> _shift_amount(b),
    Op.SAR: lambda a, b: (to_signed(a) >> _shift_amount(b)) & _MASK32,
    Op.MUL: lambda a, b: (a * b) & _MASK32,
    Op.DIVU: lambda a, b: _divu(a, b),
    Op.REMU: lambda a, b: _remu(a, b),
}

_BRANCH_FUNCS = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Op.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Op.BLTU: lambda a, b: a < b,
    Op.BGEU: lambda a, b: a >= b,
}


def _divu(a, b):
    if b == 0:
        raise VmFault("divide by zero")
    return (a // b) & _MASK32


def _remu(a, b):
    if b == 0:
        raise VmFault("divide by zero")
    return (a % b) & _MASK32


class _CpuEnv:
    """IrEnv-compatible adapter over a :class:`Cpu` for DBT mode.

    Shares the CPU's register list and bus accessors, and proxies the
    block-execution counters onto the CPU's own so DBT-mode counts are
    indistinguishable from the per-instruction interpreter's (the IR makes
    stack traffic explicit loads/stores, which land in ``mem_ops`` exactly
    like PUSH/POP/CALL/RET accounting).
    """

    __slots__ = ("cpu", "regs", "ram", "devices", "mem_read", "mem_write",
                 "io_read", "io_write", "is_device_address", "ops_retired")

    def __init__(self, cpu):
        self.cpu = cpu
        self.regs = cpu.regs
        bus = cpu.bus
        self.ram = bus.memory
        self.devices = bus
        self.mem_read = bus.mem_read
        self.mem_write = bus.mem_write
        self.io_read = bus.io_read
        self.io_write = bus.io_write
        self.is_device_address = bus.is_device_address
        #: IR ops retired; the CPU's unit of account is instructions
        #: (``instret``), so this stays adapter-local.
        self.ops_retired = 0

    @property
    def instrs_retired(self):
        return self.cpu.instret

    @instrs_retired.setter
    def instrs_retired(self, value):
        self.cpu.instret = value

    @property
    def io_ops(self):
        return self.cpu.io_ops

    @io_ops.setter
    def io_ops(self, value):
        self.cpu.io_ops = value

    @property
    def mem_ops(self):
        return self.cpu.mem_ops

    @mem_ops.setter
    def mem_ops(self, value):
        self.cpu.mem_ops = value
