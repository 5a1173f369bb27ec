"""Concrete IR interpreter (the ``interp`` execution backend).

Two uses: (1) differential validation that the DBT's IR -- and the
compiled tier lowered from it (:mod:`repro.ir.compile`) -- has exactly
the semantics of the concrete CPU, and (2) the reference execution engine
behind *synthesized* drivers: the target-OS simulators run recovered IR
functions through the compiled backend by default and fall back to (or
are differentially checked against) this tree-walker.
"""

from repro.errors import VmFault
from repro.ir import nodes as N
from repro.vm.bus import NO_DEVICES
from repro.vm.memory import NEVER_HIT

_MASK32 = 0xFFFFFFFF


def _signed(value):
    return value - (1 << 32) if value & 0x8000_0000 else value


_BIN_FUNCS = {
    N.BinKind.ADD: lambda a, b: (a + b) & _MASK32,
    N.BinKind.SUB: lambda a, b: (a - b) & _MASK32,
    N.BinKind.AND: lambda a, b: a & b,
    N.BinKind.OR: lambda a, b: a | b,
    N.BinKind.XOR: lambda a, b: a ^ b,
    N.BinKind.SHL: lambda a, b: (a << (b & 31)) & _MASK32,
    N.BinKind.SHR: lambda a, b: a >> (b & 31),
    N.BinKind.SAR: lambda a, b: (_signed(a) >> (b & 31)) & _MASK32,
    N.BinKind.MUL: lambda a, b: (a * b) & _MASK32,
}

_CMP_FUNCS = {
    N.CmpKind.EQ: lambda a, b: a == b,
    N.CmpKind.NE: lambda a, b: a != b,
    N.CmpKind.SLT: lambda a, b: _signed(a) < _signed(b),
    N.CmpKind.SGE: lambda a, b: _signed(a) >= _signed(b),
    N.CmpKind.ULT: lambda a, b: a < b,
    N.CmpKind.UGE: lambda a, b: a >= b,
}


class IrEnv:
    """Execution environment the interpreter reads/writes through.

    Wraps a register file plus memory and I/O callables; the default
    implementation adapts a :class:`~repro.vm.machine.Machine`.

    ``ram`` is the :class:`~repro.vm.memory.Memory` behind ``mem_read``
    and ``mem_write``, which compiled blocks access inline on a hit in
    its last-hit region; ``devices`` is the :class:`~repro.vm.bus.Bus`
    behind all four callables, whose bound device ranges compiled blocks
    call directly.  Only pass them when those callables are that bus's
    (and its memory's) own accessors; the defaults never hit, so every
    access goes through the callables.
    """

    def __init__(self, regs, mem_read, mem_write, io_read, io_write,
                 is_device_address=None, ram=NEVER_HIT,
                 devices=NO_DEVICES):
        self.regs = regs
        self.mem_read = mem_read
        self.mem_write = mem_write
        self.io_read = io_read
        self.io_write = io_write
        self.ram = ram
        self.devices = devices
        #: predicate classifying load/store addresses as device (MMIO)
        #: accesses for the io_ops counter
        self.is_device_address = is_device_address or (lambda addr: False)
        #: Retired IR-op count (the synthesized driver's perf counter).
        self.ops_retired = 0
        #: Retired guest-instruction count (comparable to Cpu.instret, so
        #: original and synthesized drivers are measured in the same unit).
        self.instrs_retired = 0
        #: Device accesses performed by synthesized code.
        self.io_ops = 0
        #: Regular-memory accesses, counted by both backends with the
        #: concrete CPU's per-access semantics (device accesses land in
        #: ``io_ops`` instead).
        self.mem_ops = 0

    @classmethod
    def for_machine(cls, machine):
        """Adapt a concrete VM machine."""
        bus = machine.bus
        return cls(machine.cpu.regs, bus.mem_read, bus.mem_write,
                   bus.io_read, bus.io_write,
                   is_device_address=bus.is_device_address,
                   ram=bus.memory, devices=bus)


class BlockResult:
    """Outcome of executing one translation block."""

    __slots__ = ("kind", "target", "return_pc", "cleanup")

    def __init__(self, kind, target=None, return_pc=None, cleanup=0):
        self.kind = kind          # 'jump' | 'call' | 'ret' | 'halt'
        self.target = target
        self.return_pc = return_pc
        self.cleanup = cleanup


def run_block(block, env):
    """Execute ``block`` concretely in ``env``; returns a
    :class:`BlockResult` describing the control transfer."""
    temps = {}
    env.instrs_retired += len(block.instr_addrs)

    def val(temp):
        return temps[temp]

    for op in block.ops:
        env.ops_retired += 1
        if isinstance(op, N.IrConst):
            temps[op.dst] = op.value & _MASK32
        elif isinstance(op, N.IrGetReg):
            temps[op.dst] = env.regs[op.reg]
        elif isinstance(op, N.IrSetReg):
            env.regs[op.reg] = val(op.src)
        elif isinstance(op, N.IrBin):
            if op.kind in (N.BinKind.DIVU, N.BinKind.REMU):
                divisor = val(op.b)
                if divisor == 0:
                    raise VmFault("divide by zero")
                if op.kind == N.BinKind.DIVU:
                    temps[op.dst] = (val(op.a) // divisor) & _MASK32
                else:
                    temps[op.dst] = (val(op.a) % divisor) & _MASK32
            else:
                temps[op.dst] = _BIN_FUNCS[op.kind](val(op.a), val(op.b))
        elif isinstance(op, N.IrNot):
            temps[op.dst] = (~val(op.a)) & _MASK32
        elif isinstance(op, N.IrNeg):
            temps[op.dst] = (-val(op.a)) & _MASK32
        elif isinstance(op, N.IrCmp):
            temps[op.dst] = 1 if _CMP_FUNCS[op.kind](val(op.a), val(op.b)) \
                else 0
        elif isinstance(op, N.IrLoad):
            address = val(op.addr)
            temps[op.dst] = env.mem_read(address, op.width)
            if env.is_device_address(address):
                env.io_ops += 1
            else:
                env.mem_ops += 1
        elif isinstance(op, N.IrStore):
            address = val(op.addr)
            env.mem_write(address, op.width, val(op.src))
            if env.is_device_address(address):
                env.io_ops += 1
            else:
                env.mem_ops += 1
        elif isinstance(op, N.IrIn):
            temps[op.dst] = env.io_read(val(op.port), op.width)
            env.io_ops += 1
        elif isinstance(op, N.IrOut):
            env.io_write(val(op.port), op.width, val(op.src))
            env.io_ops += 1
        elif isinstance(op, N.IrJump):
            target = val(op.target) if op.indirect else op.target
            return BlockResult("jump", target)
        elif isinstance(op, N.IrCondJump):
            target = op.target if val(op.cond) else op.fallthrough
            return BlockResult("jump", target)
        elif isinstance(op, N.IrCall):
            target = val(op.target) if op.indirect else op.target
            return BlockResult("call", target, return_pc=op.return_pc)
        elif isinstance(op, N.IrRet):
            return BlockResult("ret", val(op.addr), cleanup=op.cleanup)
        elif isinstance(op, N.IrHalt):
            return BlockResult("halt")
        else:  # pragma: no cover - node set is closed
            raise TypeError("unknown IR op %r" % (op,))
    # A block with no terminator falls through (only possible for blocks
    # truncated by basic-block splitting during synthesis).
    return BlockResult("jump", block.end_pc)
