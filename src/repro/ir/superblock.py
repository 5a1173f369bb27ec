"""Profile-guided superblocks: hot block chains compiled as one function.

Per-block DBT pays a dispatch round trip per translation block: a cache
lookup, a call into the compiled function, a ``BlockResult`` decode, and
(on the CPU path) per-counter property proxying.  Hot code is dominated
by short blocks chained through fall-throughs and direct jumps, so this
module fuses those chains -- profiled at dispatch time through per-head
execution counts and observed branch edges -- into one generated Python
function per chain, with the cross-block counter traffic accumulated in
locals and flushed once.

**Semantics are bit-for-bit those of the per-block tier.**  The chain
executes members in order; every assumption the fused code makes is
guarded, and a violated guard exits ("deopts") at the next member
boundary with a plain ``BlockResult`` jump to the member's pc, where the
per-block path resumes.  Concretely:

* **instruction budget** -- before entering member *k* (or re-entering
  a loop chain's head) the chain checks the caller's remaining budget
  and exits if exhausted, so a run that hits its step limit stops at
  exactly the same block boundary (and counter values) as per-block
  dispatch;
* **block budget** -- same check against the synthesized runtime's
  block-count budget;
* **self-patching code** -- every store is guarded against the chain's
  own code span; a hit marks the chain dirty and the next member
  boundary deopts (per-block dispatch revalidates block bytes at the
  same boundary, so observable behaviour is identical).  Patches landing
  *between* dispatches are caught by :meth:`Superblock.validate`, which
  re-reads every member's bytes before each chain run -- the same check
  ``Translator.get`` performs per block.  ``Cpu.code_changed()`` drops
  all chains outright;
* **faults and interrupts** -- a faulting op propagates out of the chain
  with all counters flushed (a ``finally`` adds the locals back to the
  env at the op boundary where the fault occurred) and, in the dynamic
  flavour, with the CPU's pc already advanced to the faulting member's
  head -- exactly where per-block dispatch leaves it; interrupts are
  delivered at run boundaries in this VM, which superblocks do not move.

Terminators end a chain: indirect jumps, calls, returns and halts are
never fused; conditional jumps fuse the profiled-hotter edge and exit
through the other.  Mid-chain exits report how many members actually
entered so the dispatcher can account steps and locate the terminating
member (import calls and halts need its last instruction address).

**Loop chains.**  A chain whose continuation is its own head (a single
self-looping block included) runs its members inside a ``while`` loop.
The back-edge is a member boundary like any other -- dirty-code deopt,
instruction budget, block budget -- and a dynamic loop additionally
exits to its head once ``ram.write_epoch`` differs from its value at
entry, so the next dispatch revalidates the member bytes.  The
members-entered and instruction counts are running totals across
iterations (the terminating member is ``blocks[(members - 1) %
len(blocks)]``), and back-edges taken are counted in
``superblock_loop_iterations``.

**Stream transfers.**  A loop chain whose iteration is a copy loop --
:func:`copy_idiom` evaluates its ops abstractly: one element moved per
iteration from a fixed device register to RAM, from RAM to the
register, or from RAM to RAM, pointers stepping by the element width,
a counter stepping down by it and tested ``== 0`` or ``<u width`` --
moves all its remaining elements at once.  At each head entry the
chain computes the trip count from the counter, clamps it to the
iterations both budgets allow, calls the device once
(``read_stream``/``write_stream`` through the bus's
``port_stream``/``mmio_stream`` binding, see
:class:`~repro.vm.bus.Bus`) and copies one slice of the RAM region's
``mmap``, then sets the registers and the counters to exactly what
those iterations leave (they end at the head, where the pc already
is).  A missing stream binding (no stream methods, or an observer on
the bus), a RAM range outside ``ram.hit``, a store range touching the
watched code span, overlapping RAM-to-RAM ranges, a device that
declines, or a trip count of 0 leaves everything untouched: the
ordinary iteration runs and the next head entry tries again.  Elements
moved this way are counted in ``superblock_stream_elements``.

**Gate.**  Chains form only in the ``"compiled"`` execution tier
(:func:`repro.ir.backend.resolve_tier`); ``"blocks"`` runs the same
compiled blocks without them and is the per-block reference the
equivalence tests compare against.  Formation follows the module
constants :data:`HOT_THRESHOLD` and :data:`MAX_MEMBERS`.
"""

from dataclasses import dataclass

from repro.counters import CELLS, NAMES, SUPERBLOCK, snapshot
from repro.ir import nodes as N
from repro.ir.compile import (_BINDINGS, _MASK32, _Writer, _emit_op,
                              compile_source)

#: Formation thresholds: how many per-block dispatches a head needs
#: before its chain forms, and how many members one chain may fuse.
#: Read at every use, so a test can patch them for eager formation.
HOT_THRESHOLD = 16
MAX_MEMBERS = 16

#: This tier's cells in ``repro.counters.CELLS``: chains formed, chain
#: runs, member blocks executed inside chains, dirty-deopt exits,
#: loop-chain back-edges taken, elements moved by stream transfers.
_FORMED, _RUNS, _BLOCKS, _DEOPTS, _BACK_EDGES, _STREAMED = \
    map(NAMES.index, SUPERBLOCK)


def superblock_counters():
    """Process totals of the superblock-tier counters."""
    return snapshot(SUPERBLOCK)


class _ChainWriter(_Writer):
    """Retargets the op lowering at chain-local counter accumulators and
    wraps returns in the chain-exit protocol ``(result, members, _i)``."""

    ops_target = "_o"
    io_target = "_io"
    mem_target = "_mem"

    def __init__(self, guard_span):
        _Writer.__init__(self)
        self.guard_span = guard_span   # (lo, hi) or None

    def wrap_return(self, expr):
        return "return (%s), _n, _i" % expr

    def after_store(self, address_ref):
        if self.guard_span is not None:
            lo, hi = self.guard_span
            self.line("if %d <= %s < %d:" % (lo, address_ref, hi))
            self.line("    _w = True")


def superblock_source(blocks, guard_code_writes, loop=False):
    """The generated module source fusing ``blocks`` into one function
    ``_sb(env, instr_budget, block_budget) -> (BlockResult, members,
    instrs)``.

    ``guard_code_writes`` emits the self-patch store guard (the dynamic
    flavour; synthesized block maps are immutable and skip it).
    ``loop`` marks a chain whose last member continues into its head:
    the members run inside a ``while`` loop whose back-edge passes the
    same boundary guards as any member boundary (plus, in the dynamic
    flavour, an exit on a changed ``ram.write_epoch`` so the next
    dispatch revalidates the member bytes).  ``members`` and ``instrs``
    are running totals across iterations.  Like
    :func:`repro.ir.compile.block_source` this is a pure function of its
    arguments.
    """
    span = (min(b.pc for b in blocks), max(b.end_pc for b in blocks))
    w = _ChainWriter(span if guard_code_writes else None)
    last = len(blocks) - 1
    idiom = copy_idiom(blocks) if loop else None
    for index, block in enumerate(blocks):
        if index:
            _emit_boundary(w, block.pc, guard_code_writes)
        elif idiom is not None:
            _emit_stream(w, idiom)
        w.line("_n += 1")
        w.line("_i += %d" % len(block.instr_addrs))
        terminator = block.terminator
        if not isinstance(terminator, N.TERMINATOR_TYPES):
            terminator = None
        if index != last or loop:
            body_ops = block.ops[:-1] if terminator is not None \
                else block.ops
            for op in body_ops:
                _emit_op(w, op)
            next_pc = blocks[0 if index == last else index + 1].pc
            _emit_chain_link(w, terminator, next_pc)
        else:
            terminated = False
            for op in block.ops:
                terminated = _emit_op(w, op)
                if terminated:
                    break
            if not terminated:
                w.flush()
                w.line(w.wrap_return(w.const(
                    "f", "BlockResult(\"jump\", %d)" % block.end_pc)))
    if loop:
        # The back-edge: everything a fresh dispatch of the head would
        # check before running it again.
        _emit_boundary(w, blocks[0].pc, guard_code_writes, back_edge=True)
        if guard_code_writes:
            w.used.add("ram")

    header = ["%s = %s" % pair for pair in w.consts]
    header += ["def _sb(env, instr_budget, block_budget):",
               "    _c[%d] += 1" % _RUNS]
    header.extend(_BINDINGS[name] for name in sorted(w.used))
    header.append("    _i = 0; _o = 0; _io = 0; _mem = 0; _n = 0")
    if guard_code_writes:
        header.append("    _w = False")
        if loop:
            header.append("    _e = ram.write_epoch")
    header.append("    try:")
    indent = "    "
    if loop:
        header.append("        while True:")
        indent = "        "
    body = [indent + line for line in w.lines]
    footer = ["    finally:",
              "        _c[%d] += _n" % _BLOCKS]
    if loop:
        # Back-edges taken: every entry of the head after the first.
        footer.append("        _c[%d] += (_n - 1) // %d"
                      % (_BACK_EDGES, len(blocks)))
    footer += ["        env.instrs_retired += _i",
               "        env.ops_retired += _o"]
    if w.used & {"io_read", "io_write", "is_dev"}:
        footer.append("        env.io_ops += _io")
    if "is_dev" in w.used:
        footer.append("        env.mem_ops += _mem")
    return "\n".join(header + body + footer) + "\n"


def _emit_boundary(w, pc, dynamic, back_edge=False):
    """Guards before entering the member at ``pc``: deopt on a dirty
    code span, exit on an exhausted instruction or block budget.  Exits
    return a plain jump to ``pc`` -- exactly what the per-block tier
    would be dispatching next."""
    exit_const = w.const("x", "BlockResult(\"jump\", %d)" % pc)
    if dynamic:
        w.line("if _w:")
        w.line("    _c[%d] += 1" % _DEOPTS)
        w.line("    return %s, _n, _i" % exit_const)
        if back_edge:
            w.line("if ram.write_epoch != _e:")
            w.line("    return %s, _n, _i" % exit_const)
    w.line("if _i >= instr_budget or _n >= block_budget:")
    w.line("    return %s, _n, _i" % exit_const)
    if dynamic:
        # Per-block dispatch would have advanced the CPU's pc to this
        # member before running it; track that so a fault escaping the
        # chain reports the same faulting-block pc.
        w.line("env.cpu.pc = %d" % pc)


def _emit_chain_link(w, terminator, next_pc):
    """Fold an interior member's terminator into the fall-through to the
    next member, exiting through the non-fused edge when one exists."""
    if terminator is None:
        # Terminator-less member (a split-block head): falls through.
        w.flush()
        return
    if isinstance(terminator, N.IrJump):
        # Direct jump to the next member: counting the op is all that
        # remains of it.
        w.flush(including=1)
        return
    if isinstance(terminator, N.IrCondJump):
        w.flush(including=1)
        if terminator.target == terminator.fallthrough:
            # Degenerate branch: both edges continue into the chain.
            return
        cond = "t%d" % terminator.cond
        if next_pc == terminator.fallthrough:
            exit_const = w.const(
                "j", "BlockResult(\"jump\", %d)" % terminator.target)
            w.line("if %s:" % cond)
        else:
            exit_const = w.const(
                "j", "BlockResult(\"jump\", %d)" % terminator.fallthrough)
            w.line("if not %s:" % cond)
        w.line("    return %s, _n, _i" % exit_const)
        return
    raise ValueError(  # pragma: no cover - formation never fuses these
        "cannot fuse terminator %r" % (terminator,))


# -- stream transfers ----------------------------------------------------


@dataclass(frozen=True)
class CopyIdiom:
    """One loop-chain iteration that moves one element from a load (or
    ``IN``) to a store (or ``OUT``), as :func:`copy_idiom` finds it.

    ``load`` and ``store`` are the accesses' addresses as ``(reg,
    offset)`` -- the register's value at the head entry plus ``offset``
    -- or ``(None, constant)``.  ``kind`` is ``"read"`` (device to RAM),
    ``"write"`` (RAM to device) or ``"ram"`` (RAM to RAM); ``space`` is
    ``"port"`` or ``"mmio"`` for the device kinds.  ``counter`` is the
    ``(reg, offset)`` the exit test compares, ``exit_ult`` tells
    ``counter <u width`` from ``counter == 0``.  ``steps``, ``consts``
    and ``elements`` say what one iteration leaves in each register it
    writes (``reg + step``, a constant, the moved element), and
    ``members``, ``instrs`` and ``ops`` what it counts."""

    width: int
    kind: str
    space: str
    load: tuple
    store: tuple
    counter: tuple
    exit_ult: bool
    steps: dict
    consts: dict
    elements: list
    members: int
    instrs: int
    ops: int


def copy_idiom(blocks):
    """The :class:`CopyIdiom` one iteration of the loop chain ``blocks``
    implements, or ``None``.

    The iteration is evaluated abstractly -- every temp and register as
    a constant, a head-entry register plus a constant, or the moved
    element -- so any op order and any scratch registers the copy loop's
    blocks use are recognized alike.  The idiom: each written register
    ends unchanged, ``reg + const``, a constant or the element; exactly
    one load (or ``IN``) produces the element and one store (or
    ``OUT``) of the same width consumes it unchanged; RAM pointers step
    by +width, device addresses stay fixed, one counter steps by
    -width; and the chain's one exit is ``counter == 0`` or ``counter <u
    width``."""
    regs = {}
    accesses = []       # (op, address value)
    exit_test = None
    for index, block in enumerate(blocks):
        temps = {}
        next_pc = blocks[(index + 1) % len(blocks)].pc
        for op in block.ops:
            if isinstance(op, N.IrConst):
                temps[op.dst] = ("c", op.value & _MASK32)
            elif isinstance(op, N.IrGetReg):
                temps[op.dst] = regs.get(op.reg, ("r", op.reg, 0))
            elif isinstance(op, N.IrSetReg):
                regs[op.reg] = temps.get(op.src)
            elif isinstance(op, N.IrBin):
                if op.kind in (N.BinKind.DIVU, N.BinKind.REMU):
                    return None     # may fault
                temps[op.dst] = _affine(op.kind, temps.get(op.a),
                                        temps.get(op.b))
            elif isinstance(op, N.IrCmp):
                temps[op.dst] = ("cmp", op.kind, temps.get(op.a),
                                 temps.get(op.b))
            elif isinstance(op, (N.IrLoad, N.IrIn)):
                address = op.addr if isinstance(op, N.IrLoad) else op.port
                accesses.append((op, temps.get(address)))
                temps[op.dst] = ("e",)
            elif isinstance(op, (N.IrStore, N.IrOut)):
                if temps.get(op.src) != ("e",):
                    return None
                address = op.addr if isinstance(op, N.IrStore) else op.port
                accesses.append((op, temps.get(address)))
            elif isinstance(op, N.IrCondJump):
                if op.target == op.fallthrough:
                    continue
                if exit_test is not None:
                    return None
                exit_test = (temps.get(op.cond), next_pc == op.fallthrough)
            elif isinstance(op, (N.IrNot, N.IrNeg)):
                temps[op.dst] = None
            elif not isinstance(op, N.IrJump) or op.indirect:
                return None
    if exit_test is None or len(accesses) != 2:
        return None
    (source, source_at), (sink, sink_at) = accesses
    width = source.width
    if not isinstance(sink, (N.IrStore, N.IrOut)) or sink.width != width:
        return None
    steps, consts, elements = {}, {}, []
    for reg, value in sorted(regs.items()):
        if value is None:
            return None
        if value[0] == "c":
            consts[reg] = value[1]
        elif value[0] == "e":
            elements.append(reg)
        elif value[0] != "r" or value[1] != reg:
            return None
        elif value[2]:
            steps[reg] = value[2]
    # The exit: ``counter == 0`` taken, ``counter != 0`` not taken, or
    # the same with ``counter <u width`` / ``counter >=u width``.
    test, exit_on_true = exit_test
    if test is None or test[0] != "cmp" or test[2] is None \
            or test[2][0] != "r" or test[3] is None or test[3][0] != "c":
        return None
    kind, (_r, counter, offset), (_c, bound) = test[1], test[2], test[3]
    if (kind, exit_on_true) in ((N.CmpKind.EQ, True),
                                (N.CmpKind.NE, False)) and bound == 0:
        exit_ult = False
    elif (kind, exit_on_true) in ((N.CmpKind.ULT, True),
                                  (N.CmpKind.UGE, False)) \
            and bound == width:
        exit_ult = True
    else:
        return None
    if steps.get(counter) != -width & _MASK32:
        return None

    def place(value):
        """``("ram", (reg, offset))`` for a pointer stepping by +width,
        ``("fixed", (reg or None, offset))`` for an invariant address."""
        if value is None or value[0] == "e" or value[0] == "cmp":
            return None
        if value[0] == "c":
            return "fixed", (None, value[1])
        reg = value[1]
        if steps.get(reg) == width:
            return "ram", (reg, value[2])
        if reg not in steps and reg not in consts and reg not in elements:
            return "fixed", (reg, value[2])
        return None

    load, store = place(source_at), place(sink_at)
    if load is None or store is None:
        return None
    if load[0] == "ram" and store[0] == "ram":
        if isinstance(source, N.IrIn) or isinstance(sink, N.IrOut):
            return None
        kind, space = "ram", None
    elif load[0] == "fixed" and store[0] == "ram" \
            and not isinstance(sink, N.IrOut):
        kind = "read"
        space = "port" if isinstance(source, N.IrIn) else "mmio"
    elif load[0] == "ram" and store[0] == "fixed" \
            and not isinstance(source, N.IrIn):
        kind = "write"
        space = "port" if isinstance(sink, N.IrOut) else "mmio"
    else:
        return None
    return CopyIdiom(
        width=width, kind=kind, space=space, load=load[1], store=store[1],
        counter=(counter, offset), exit_ult=exit_ult, steps=steps,
        consts=consts, elements=elements, members=len(blocks),
        instrs=sum(len(b.instr_addrs) for b in blocks),
        ops=sum(len(b.ops) for b in blocks))


def _affine(kind, a, b):
    """``a <kind> b`` in the abstract domain of :func:`copy_idiom`:
    adding or subtracting a constant keeps a constant or ``reg +
    const``; anything else is unknown (``None``)."""
    if a is None or b is None or kind not in (N.BinKind.ADD, N.BinKind.SUB):
        return None
    sign = 1 if kind == N.BinKind.ADD else -1
    if b[0] == "c" and a[0] in ("c", "r"):
        return a[:-1] + ((a[-1] + sign * b[1]) & _MASK32,)
    if kind == N.BinKind.ADD and a[0] == "c" and b[0] == "r":
        return b[:-1] + ((b[-1] + a[1]) & _MASK32,)
    return None


def _address(ref):
    reg, offset = ref
    if reg is None:
        return "%d" % offset
    if not offset:
        return "regs[%d]" % reg
    return "(regs[%d] + %d) & 4294967295" % (reg, offset)


def _emit_stream(w, idiom):
    """The stream transfer at the loop head (see the module docstring):
    the trip count ``_bk`` of complete iterations, clamped so every
    boundary guard those iterations pass still passes; then, when every
    condition holds and the device accepts, one device call and one
    slice copy, and the registers and counters ``_bk`` iterations leave.
    Otherwise nothing changes and the ordinary iteration runs."""
    w.used.update(("regs", "ram", "devices"))
    width = idiom.width
    w.line("_bk = %s" % _address(idiom.counter))
    if idiom.exit_ult:
        w.line("_bk //= %d" % width)
    elif width > 1:
        # ``== 0`` never holds for a counter off the width's multiples.
        w.line("_bk = 0 if _bk %% %d else _bk // %d" % (width, width))
    w.line("_bk = min(_bk, (instr_budget - _i - 1) // %d, "
           "(block_budget - _n - 1) // %d)" % (idiom.instrs, idiom.members))
    w.line("if _bk > 0:")
    w.line("    _rb, _rl, _rm = ram.hit")
    w.line("    _bl = _bk * %d" % width)
    w.line("    _bs = %s" % _address(idiom.load))
    w.line("    _bd = %s" % _address(idiom.store))
    conditions = []
    if idiom.kind != "read":    # the load reads RAM
        conditions += ["_rb <= _bs", "_bs + _bl <= _rl"]
    if idiom.kind != "write":   # the store writes RAM
        conditions += ["_rb <= _bd", "_bd + _bl <= _rl",
                       "(_bd >= ram.watch_hi or _bd + _bl <= ram.watch_lo)"]
    if idiom.kind == "ram":
        conditions.append("(_bd + _bl <= _bs or _bs + _bl <= _bd)")
    else:
        w.line("    _db, _dl, _bsr, _bsw = dev.%s_stream" % idiom.space)
        conditions.append("_db <= %s < _dl"
                          % ("_bs" if idiom.kind == "read" else "_bd"))
    w.line("    if %s:" % " and ".join(conditions))
    indent = "            "
    if idiom.kind == "read":
        w.line("        _bv = _bsr(_bs - _db, %d, _bk)" % width)
        w.line("        if _bv is not None:")
        w.line("            _rm[_bd - _rb:_bd - _rb + _bl] = _bv")
    elif idiom.kind == "write":
        w.line("        _bv = _rm[_bs - _rb:_bs - _rb + _bl]")
        w.line("        if _bsw(_bd - _db, %d, _bv) is not None:" % width)
    else:
        w.line("        _bv = _rm[_bs - _rb:_bs - _rb + _bl]")
        w.line("        _rm[_bd - _rb:_bd - _rb + _bl] = _bv")
        indent = "        "
    # What ``_bk`` iterations leave: registers and counters.  The pc
    # needs nothing: at a head entry it already holds the head, where
    # the iterations end (the dynamic flavour's back-edge sets it).
    commit = ["regs[%d] = (regs[%d] + _bk * %d) & 4294967295"
              % (reg, reg, step) for reg, step in sorted(idiom.steps.items())]
    commit += ["regs[%d] = %d" % (reg, value)
               for reg, value in sorted(idiom.consts.items())]
    element = "_bv[-1]" if width == 1 else \
        "int.from_bytes(_bv[-%d:], \"little\")" % width
    commit += ["regs[%d] = %s" % (reg, element) for reg in idiom.elements]
    commit += ["_n += _bk * %d" % idiom.members,
               "_i += _bk * %d" % idiom.instrs,
               "_o += _bk * %d" % idiom.ops]
    if idiom.kind == "ram":
        commit.append("_mem += _bk * 2")
    else:
        commit += ["_io += _bk", "_mem += _bk"]
    commit.append("_c[%d] += _bk" % _STREAMED)
    for text in commit:
        w.line(indent + text)


class Superblock:
    """A formed chain: the member blocks, the fused function, and (in
    the dynamic flavour) the byte spans revalidated before every run.

    ``valid_epoch`` memoizes the memory write epoch the spans were last
    verified against: while no write has happened since, revalidation is
    a single integer compare instead of guest-byte reads."""

    __slots__ = ("pc", "blocks", "loop", "fn", "_spans", "valid_epoch")

    def __init__(self, blocks, loop, fn, spans):
        self.pc = blocks[0].pc
        self.blocks = blocks
        self.loop = loop
        self.fn = fn
        self._spans = spans
        self.valid_epoch = None

    def validate(self, read_code):
        """True when every member's guest bytes still match the bytes
        the chain was formed from (contiguous members share one read)."""
        try:
            for pc, size, raw in self._spans:
                if bytes(read_code(pc, size)) != raw:
                    return False
        except Exception:
            return False
        return True


#: Content-addressed fused-function cache shared across managers, like
#: ``compile._SHARED_PROGRAMS``: many short-lived harnesses over the
#: same image share one compiled chain.  Same bounding discipline.
_SHARED_CHAINS = {}
_SHARED_CHAINS_MAX = 4096

_DECLINED = object()


class SuperblockManager:
    """Per-consumer profiling, formation and dispatch-time validation.

    ``flavor`` selects the trust model: ``"dynamic"`` blocks come from a
    :class:`~repro.dbt.translator.Translator` over mutable guest memory,
    so chains revalidate member bytes before every run and guard their
    own stores; ``"static"`` blocks come from a synthesized driver's
    immutable block map, so both checks are skipped (matching the
    per-block tier, which never re-reads a synthesized block either).

    ``get_block`` maps a pc to a translation block (returning ``None``
    or raising for untranslatable addresses -- both simply stop chain
    growth).  ``epoch_source`` (dynamic flavour) is an object with a
    ``write_epoch`` attribute (the guest :class:`~repro.vm.memory.Memory`)
    used to skip byte revalidation while memory is untouched.
    """

    def __init__(self, get_block, flavor, read_code=None,
                 epoch_source=None):
        if flavor not in ("dynamic", "static"):
            raise ValueError("unknown superblock flavor %r" % (flavor,))
        if flavor == "dynamic" and read_code is None:
            raise ValueError("dynamic superblocks need read_code")
        self._get_block = get_block
        self._flavor = flavor
        self._read = read_code
        self._epoch_source = epoch_source
        self._supers = {}
        self._counts = {}
        self._edges = {}
        self._last_pc = None
        #: Static-flavour steady-state fast path: pc -> formed chain, or
        #: ``None`` for a declined head.  Dispatch loops may probe it
        #: before paying a :meth:`lookup` call -- static chains need no
        #: revalidation, so a hit is final; only absent keys (cold pcs
        #: still being profiled) need the full path.  Dynamic managers
        #: keep it ``None``: every hit must revalidate member bytes.
        self.dispatch = {} if flavor == "static" else None

    def invalidate(self):
        """Drop every chain and all profile state (the
        ``Cpu.code_changed()`` hook)."""
        self._supers.clear()
        self._counts.clear()
        self._edges.clear()
        self._last_pc = None
        if self.dispatch is not None:
            self.dispatch.clear()

    def lookup(self, pc):
        """The superblock to run at ``pc``, or ``None`` for the per-block
        path.  Also the profiling hook: consecutive per-block lookups
        feed the execution counts and branch edges formation uses."""
        sb = self._supers.get(pc)
        if sb is not None and sb is not _DECLINED:
            if self._read is None:
                self._last_pc = None
                return sb
            source = self._epoch_source
            epoch = source.write_epoch if source is not None else None
            if epoch is not None and sb.valid_epoch == epoch:
                # Nothing has written to memory since the last byte
                # check: the spans cannot have changed.
                self._last_pc = None
                return sb
            if sb.validate(self._read):
                sb.valid_epoch = epoch
                self._last_pc = None
                return sb
            # Patched under the chain: drop it and fall through to
            # re-profile (the translator revalidates and retranslates
            # the members on the next fetch).
            del self._supers[pc]
            sb = None
        prev, self._last_pc = self._last_pc, pc
        if prev is not None:
            edges = self._edges.get(prev)
            if edges is None:
                edges = self._edges[prev] = {}
            edges[pc] = edges.get(pc, 0) + 1
        if sb is _DECLINED:
            return None
        count = self._counts.get(pc, 0) + 1
        self._counts[pc] = count
        if count < HOT_THRESHOLD:
            return None
        formed = self._form(pc)
        if formed is not None:
            self._last_pc = None
        return formed

    # -- formation -----------------------------------------------------

    def _fetch(self, pc):
        try:
            return self._get_block(pc)
        except Exception:
            return None

    def _next_pc(self, block):
        """The chain continuation after ``block``, or ``None`` when its
        terminator ends the chain."""
        term = block.terminator
        if not isinstance(term, N.TERMINATOR_TYPES):
            return block.end_pc
        if isinstance(term, N.IrJump) and not term.indirect:
            return term.target
        if isinstance(term, N.IrCondJump):
            if term.target == term.fallthrough:
                return term.target
            edges = self._edges.get(block.pc)
            taken = edges.get(term.target, 0) if edges else 0
            fall = edges.get(term.fallthrough, 0) if edges else 0
            return term.target if taken > fall else term.fallthrough
        return None

    def _form(self, head_pc):
        blocks = []
        seen = set()
        pc = head_pc
        loop = False
        while len(blocks) < MAX_MEMBERS:
            block = self._fetch(pc)
            if block is None:
                break
            blocks.append(block)
            seen.add(pc)
            nxt = self._next_pc(block)
            if nxt == head_pc:
                # The chain continues into its own head: a loop chain
                # (a lone self-looping block included).
                loop = True
                break
            if nxt is None or nxt in seen:
                break
            pc = nxt
        if len(blocks) < 2 and not loop:
            # Nothing to fuse (terminator ends the chain immediately, or
            # the continuation is untranslatable): never retry this head.
            self._supers[head_pc] = _DECLINED
            if self.dispatch is not None:
                self.dispatch[head_pc] = None
            return None
        sb = self._build(blocks, loop)
        self._supers[head_pc] = sb
        if self.dispatch is not None:
            self.dispatch[head_pc] = sb
        CELLS[_FORMED] += 1
        return sb

    def _build(self, blocks, loop):
        guard = self._flavor == "dynamic"
        key = (self._flavor, loop,
               tuple((b.pc, b.size, len(b.instr_addrs), tuple(b.ops))
                     for b in blocks))
        if guard and self._epoch_source is not None:
            self._epoch_source.watch_code_span(
                min(b.pc for b in blocks), max(b.end_pc for b in blocks))
        fn = _SHARED_CHAINS.get(key)
        if fn is None:
            fn = compile_source(
                superblock_source(blocks, guard, loop), "_sb",
                "<superblock-0x%08x>" % blocks[0].pc)
            if len(_SHARED_CHAINS) >= _SHARED_CHAINS_MAX:
                _SHARED_CHAINS.clear()
            _SHARED_CHAINS[key] = fn
        spans = _member_spans(blocks, self._read) if guard else None
        return Superblock(blocks, loop, fn, spans)


def _member_spans(blocks, read_code):
    """``(pc, size, raw)`` spans covering every member, with contiguous
    members merged so dispatch-time revalidation reads once per run of
    fall-through members."""
    spans = []
    for block in blocks:
        if spans and spans[-1][0] + spans[-1][1] == block.pc:
            pc, size = spans[-1][0], spans[-1][1] + block.size
            spans[-1] = (pc, size)
        else:
            spans.append((block.pc, block.size))
    return [(pc, size, bytes(read_code(pc, size))) for pc, size in spans]
