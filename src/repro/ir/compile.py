"""Block compiler: lowers IR translation blocks to flat Python functions.

The same ``compile()`` discipline as :mod:`repro.symex.expr`'s compiled
evaluation programs, applied to whole translation blocks: each block is
lowered once into the source of one Python function -- one statement per
IR op, temps as local variables, no per-op dispatch, no temp dictionary --
and executed many times.  The generated function has *exactly* the
semantics of :func:`repro.ir.interp.run_block` against the same
environment object, including the counter discipline (``instrs_retired``
at block entry, ``ops_retired`` per executed op even when an op faults
mid-block) and the fault behaviour (``VmFault`` on divide by zero,
whatever the environment's memory/I/O callables raise for bad accesses).

Generated sources are *self-contained modules*: every constant (the
``BlockResult`` objects a block returns) is emitted as a source-level
binding, so :func:`block_source` is a pure function of the block's
ops/layout and the exact same text executes identically in any process.

The compiled function is cached on the block object itself, so cache
lifetime *is* block lifetime: a :class:`~repro.dbt.translator.Translator`
that retranslates a patched block produces a fresh block object and
therefore a fresh compiled function -- the mid-block-patch invalidation
semantics come for free.

Guest RAM is accessed inline.  A load or store whose bytes lie wholly
inside ``env.ram.hit`` -- the last region the guest
:class:`~repro.vm.memory.Memory` hit -- reads or writes that region's
``mmap`` directly and counts one ``mem_ops``; a store must also miss the
memory's watched code span, whose writes bump ``write_epoch``.

Devices are called directly.  ``env.devices`` is the
:class:`~repro.vm.bus.Bus`, whose ``port_hit`` and ``mmio_hit`` tuples
``(base, limit, read, write)`` hold the bound register methods of its one
claimed port range and MMIO range.  An ``IN``/``OUT`` whose port lies in
``port_hit``, and a load or store that misses RAM but lies in
``mmio_hit``, makes one call into the device with the range offset and
counts one ``io_ops`` -- what the bus would do, without the bus.  The
tuples are read on every access, never cached in the block: the bus
swaps in :data:`~repro.vm.bus.NO_DEVICE` whenever an observer is set, so
an observer attached at any point sees every later access.

Every other access (a RAM miss outside the bound MMIO range, the rest of
the MMIO window, an unbound port, a fault, a watched-span store) calls
the environment's ``mem_read``/``mem_write``/``io_read``/``io_write``
and classifies loads and stores with ``env.is_device_address``, as the
interpreter does for all of them.  Environments whose callables are not
a bus's own accessors bind ``ram`` to :data:`~repro.vm.memory.NEVER_HIT`
and ``devices`` to :data:`~repro.vm.bus.NO_DEVICES`, so the shared
generated code -- a pure function of the block -- always calls them.

The op lowering in :func:`_emit_op` is shared with the superblock
code generator (:mod:`repro.ir.superblock`), which subclasses
:class:`_Writer` to retarget the counter sinks at local accumulators and
wrap returns in the chain-exit protocol.
"""

import struct

from repro.counters import CELLS, EXEC, NAMES, snapshot
from repro.errors import VmFault
from repro.ir import nodes as N
from repro.ir.interp import BlockResult

_MASK32 = 0xFFFFFFFF

#: Little-endian accessors the inline RAM path applies to a region's
#: ``mmap`` (one-byte accesses index it directly).
_RAM_HELPERS = {
    "_ld2": struct.Struct("<H").unpack_from,
    "_ld4": struct.Struct("<I").unpack_from,
    "_st2": struct.Struct("<H").pack_into,
    "_st4": struct.Struct("<I").pack_into,
}

#: ``a`` signed-reinterpreted, as a source expression (operand repeated).
_SIGNED = "(%s - 4294967296 if %s & 2147483648 else %s)"

_BIN_TEMPLATES = {
    N.BinKind.ADD: "(%s + %s) & 4294967295",
    N.BinKind.SUB: "(%s - %s) & 4294967295",
    N.BinKind.AND: "%s & %s",
    N.BinKind.OR: "%s | %s",
    N.BinKind.XOR: "%s ^ %s",
    N.BinKind.SHL: "(%s << (%s & 31)) & 4294967295",
    N.BinKind.SHR: "%s >> (%s & 31)",
    N.BinKind.MUL: "(%s * %s) & 4294967295",
}

_CMP_OPS = {
    N.CmpKind.EQ: ("==", False), N.CmpKind.NE: ("!=", False),
    N.CmpKind.ULT: ("<", False), N.CmpKind.UGE: (">=", False),
    N.CmpKind.SLT: ("<", True), N.CmpKind.SGE: (">=", True),
}

#: This module's cells in ``repro.counters.CELLS``: blocks compiled,
#: compiled-block executions.
_COMPILED, _RUNS = map(NAMES.index, EXEC)


def exec_counters():
    """Process totals of the block-compiler counters."""
    return snapshot(EXEC)


class _Writer:
    """Accumulates body lines plus the deferred ops_retired flushes.

    The class attributes name the counter sinks the emitted statements
    increment; the superblock writer retargets them at local accumulators
    (flushed once in a ``finally``) and overrides :meth:`wrap_return` /
    :meth:`after_store` for the chain-exit protocol and the self-patch
    store guard.
    """

    ops_target = "env.ops_retired"
    io_target = "env.io_ops"
    mem_target = "env.mem_ops"

    def __init__(self):
        self.lines = []
        self.pending = 0          # executed ops not yet counted
        self.consts = []          # (name, source expression) pairs
        self.used = set()         # env accessors referenced by the body

    def line(self, text):
        self.lines.append("    " + text)

    def flush(self, including=0):
        """Emit the deferred ``ops_retired`` increment.  ``including``
        ops are about to execute now (a faulting op counts *before* it
        runs, exactly like the interpreter's per-op increment)."""
        count = self.pending + including
        self.pending = 0
        if count:
            self.line("%s += %d" % (self.ops_target, count))

    def const(self, prefix, expr):
        """Bind source expression ``expr`` as a module-level constant."""
        name = "_%s%d" % (prefix, len(self.consts))
        self.consts.append((name, expr))
        return name

    def wrap_return(self, expr):
        """The return statement delivering ``expr`` as the block result."""
        return "return " + expr

    def after_store(self, address_ref):
        """Hook invoked after every emitted store; the superblock writer
        guards writes into the chain's own code span here."""


def _signed(ref):
    return _SIGNED % (ref, ref, ref)


def _emit_op(w, op):
    """Emit source for one IR op; returns True when it terminated the
    block (emitted a return)."""
    t = "t%d"
    if isinstance(op, N.IrConst):
        w.line(t % op.dst + " = %d" % (op.value & _MASK32))
    elif isinstance(op, N.IrGetReg):
        w.used.add("regs")
        w.line(t % op.dst + " = regs[%d]" % op.reg)
    elif isinstance(op, N.IrSetReg):
        w.used.add("regs")
        w.line("regs[%d] = " % op.reg + t % op.src)
    elif isinstance(op, N.IrBin):
        a, b = t % op.a, t % op.b
        if op.kind in (N.BinKind.DIVU, N.BinKind.REMU):
            w.flush(including=1)
            w.line("if %s == 0:" % b)
            w.line("    raise VmFault(\"divide by zero\")")
            sign = "//" if op.kind == N.BinKind.DIVU else "%"
            w.line(t % op.dst + " = (%s %s %s) & 4294967295" % (a, sign, b))
            return False
        if op.kind == N.BinKind.SAR:
            w.line(t % op.dst + " = (%s >> (%s & 31)) & 4294967295"
                   % (_signed(a), b))
        else:
            w.line(t % op.dst + " = " + _BIN_TEMPLATES[op.kind] % (a, b))
    elif isinstance(op, N.IrNot):
        w.line(t % op.dst + " = (~%s) & 4294967295" % (t % op.a,))
    elif isinstance(op, N.IrNeg):
        w.line(t % op.dst + " = (-%s) & 4294967295" % (t % op.a,))
    elif isinstance(op, N.IrCmp):
        a, b = t % op.a, t % op.b
        sign, is_signed = _CMP_OPS[op.kind]
        if is_signed:
            a, b = _signed(a), _signed(b)
        w.line(t % op.dst + " = 1 if %s %s %s else 0" % (a, sign, b))
    elif isinstance(op, N.IrLoad):
        w.used.update(("ram", "devices", "mem_read", "is_dev"))
        w.flush(including=1)
        dst, address, width = t % op.dst, t % op.addr, op.width
        if width == 1:
            hit = "%s = _rm[%s - _rb]" % (dst, address)
        else:
            hit = "%s = _ld%d(_rm, %s - _rb)[0]" % (dst, width, address)
        _emit_ram_access(w, address, width, hit,
                         "%s = _dr(%s - _db, %d)" % (dst, address, width),
                         "%s = mem_read(%s, %d)" % (dst, address, width))
        return False
    elif isinstance(op, N.IrStore):
        w.used.update(("ram", "devices", "mem_write", "is_dev"))
        w.flush(including=1)
        address, width, value = t % op.addr, op.width, t % op.src
        masked = "%s & %d" % (value, (1 << 8 * width) - 1)
        if width == 1:
            hit = "_rm[%s - _rb] = %s" % (address, masked)
        else:
            hit = "_st%d(_rm, %s - _rb, %s)" % (width, address, masked)
        _emit_ram_access(w, address, width, hit,
                         "_dw(%s - _db, %d, %s)" % (address, width, value),
                         "mem_write(%s, %d, %s)" % (address, width, value),
                         store=True)
        w.after_store(address)
        return False
    elif isinstance(op, N.IrIn):
        w.used.update(("devices", "io_read"))
        w.flush(including=1)
        dst, port, width = t % op.dst, t % op.port, op.width
        _emit_port_access(w, port,
                          "%s = _dr(%s - _db, %d)" % (dst, port, width),
                          "%s = io_read(%s, %d)" % (dst, port, width))
        return False
    elif isinstance(op, N.IrOut):
        w.used.update(("devices", "io_write"))
        w.flush(including=1)
        port, width, value = t % op.port, op.width, t % op.src
        _emit_port_access(w, port,
                          "_dw(%s - _db, %d, %s)" % (port, width, value),
                          "io_write(%s, %d, %s)" % (port, width, value))
        return False
    elif isinstance(op, N.IrJump):
        w.flush(including=1)
        if op.indirect:
            w.line(w.wrap_return("BlockResult(\"jump\", %s)"
                                 % (t % op.target,)))
        else:
            w.line(w.wrap_return(w.const(
                "j", "BlockResult(\"jump\", %d)" % op.target)))
        return True
    elif isinstance(op, N.IrCondJump):
        w.flush(including=1)
        taken = w.const("j", "BlockResult(\"jump\", %d)" % op.target)
        fall = w.const("j", "BlockResult(\"jump\", %d)" % op.fallthrough)
        w.line(w.wrap_return("%s if %s else %s" % (taken, t % op.cond, fall)))
        return True
    elif isinstance(op, N.IrCall):
        w.flush(including=1)
        if op.indirect:
            w.line(w.wrap_return("BlockResult(\"call\", %s, %d)"
                                 % (t % op.target, op.return_pc)))
        else:
            w.line(w.wrap_return(w.const(
                "c", "BlockResult(\"call\", %d, %d)"
                % (op.target, op.return_pc))))
        return True
    elif isinstance(op, N.IrRet):
        w.flush(including=1)
        w.line(w.wrap_return("BlockResult(\"ret\", %s, cleanup=%d)"
                             % (t % op.addr, op.cleanup)))
        return True
    elif isinstance(op, N.IrHalt):
        w.flush(including=1)
        w.line(w.wrap_return(w.const("h", "BlockResult(\"halt\")")))
        return True
    else:  # pragma: no cover - node set is closed
        raise TypeError("cannot compile IR op %r" % (op,))
    w.pending += 1
    return False


def _emit_port_access(w, port_ref, device, miss):
    """Emit one ``IN``/``OUT``: ``device``, the direct call into the
    device bound by ``env.devices.port_hit``, when the port lies in its
    range; otherwise ``miss``, the environment's callable (which raises
    for an unclaimed port).  Either counts one ``io_ops``."""
    w.line("_db, _dl, _dr, _dw = dev.port_hit")
    w.line("if _db <= %s < _dl:" % port_ref)
    w.line("    " + device)
    w.line("else:")
    w.line("    " + miss)
    w.line("%s += 1" % w.io_target)


def _emit_ram_access(w, address_ref, width, hit, device, miss, store=False):
    """Emit one guest load or store: ``hit`` when the access lies wholly
    in ``env.ram``'s last-hit region (never an MMIO address) and, for a
    store, misses the watched code span whose writes must bump
    ``write_epoch``; else ``device``, the direct device call, when the
    address lies in ``env.devices.mmio_hit``; otherwise ``miss``, the
    environment's callable, classified by ``is_dev`` like the
    interpreter does."""
    w.line("_rb, _rl, _rm = ram.hit")
    if width == 1:
        test = "_rb <= %s < _rl" % address_ref
    else:
        test = "_rb <= %s and %s + %d <= _rl" \
            % (address_ref, address_ref, width)
    if store:
        test += " and (%s >= ram.watch_hi or %s + %d <= ram.watch_lo)" \
            % (address_ref, address_ref, width)
    w.line("if %s:" % test)
    w.line("    " + hit)
    w.line("    %s += 1" % w.mem_target)
    w.line("else:")
    w.line("    _db, _dl, _dr, _dw = dev.mmio_hit")
    w.line("    if _db <= %s < _dl:" % address_ref)
    w.line("        " + device)
    w.line("        %s += 1" % w.io_target)
    w.line("    else:")
    w.line("        " + miss)
    w.line("        if is_dev(%s):" % address_ref)
    w.line("            %s += 1" % w.io_target)
    w.line("        else:")
    w.line("            %s += 1" % w.mem_target)


_BINDINGS = {
    "devices": "    dev = env.devices",
    "ram": "    ram = env.ram",
    "regs": "    regs = env.regs",
    "mem_read": "    mem_read = env.mem_read",
    "mem_write": "    mem_write = env.mem_write",
    "io_read": "    io_read = env.io_read",
    "io_write": "    io_write = env.io_write",
    "is_dev": "    is_dev = env.is_device_address",
}


def block_source(block):
    """The generated module source for ``block``: constant bindings plus
    one ``_block(env)`` function.

    A pure function of the block's ops and layout -- byte-identical
    whenever the block content is identical -- which is the contract the
    content-keyed ``_SHARED_PROGRAMS`` table relies on.
    """
    w = _Writer()
    terminated = False
    for op in block.ops:
        terminated = _emit_op(w, op)
        if terminated:
            break
    if not terminated:
        # A block with no terminator falls through (split-block heads).
        w.flush()
        w.line(w.wrap_return(w.const(
            "f", "BlockResult(\"jump\", %d)" % block.end_pc)))

    header = ["%s = %s" % pair for pair in w.consts]
    header += ["def _block(env):",
               "    _c[%d] += 1" % _RUNS,
               "    env.instrs_retired += %d" % len(block.instr_addrs)]
    header.extend(_BINDINGS[name] for name in sorted(w.used))
    return "\n".join(header + w.lines) + "\n"


def compile_source(source, name, filename):
    """Exec generated ``source`` and return the function bound to
    ``name``.  The namespace carries the counter cells as ``_c``."""
    namespace = {"_c": CELLS, "VmFault": VmFault,
                 "BlockResult": BlockResult}
    namespace.update(_RAM_HELPERS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _compile_block(block):
    fn = compile_source(block_source(block), "_block",
                        "<block-0x%08x>" % block.pc)
    CELLS[_COMPILED] += 1
    return fn


#: Content-addressed program cache shared across translators: two block
#: objects with identical ops/layout (e.g. the same driver image loaded
#: into many harnesses) share one compiled function.  Keys capture
#: everything the generated source depends on, so a mid-block patch --
#: which retranslates into different ops -- can never hit a stale entry.
#: Bounded: long-lived sessions that keep patching/reloading code reset
#: the table once it reaches the cap (semantics-safe -- every entry is a
#: pure function of its key and recompiles on demand; live blocks keep
#: their function through the per-block attribute).
_SHARED_PROGRAMS = {}
_SHARED_PROGRAMS_MAX = 16384


def compile_block(block):
    """The compiled execution function of ``block`` (cached on the block).

    Returns a function ``fn(env) -> BlockResult`` with semantics identical
    to ``run_block(block, env)``.
    """
    fn = getattr(block, "_compiled", None)
    if fn is None:
        key = (block.pc, block.size, len(block.instr_addrs),
               tuple(block.ops))
        fn = _SHARED_PROGRAMS.get(key)
        if fn is None:
            fn = _compile_block(block)
            if len(_SHARED_PROGRAMS) >= _SHARED_PROGRAMS_MAX:
                _SHARED_PROGRAMS.clear()
            _SHARED_PROGRAMS[key] = fn
        block._compiled = fn
    return fn
