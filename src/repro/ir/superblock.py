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
"""

import os

from repro.ir import nodes as N
from repro.ir.compile import _BINDINGS, _Writer, _emit_op, compile_source

#: Environment toggle for the superblock tier (used when a consumer does
#: not pass an explicit setting): ``off``/``0`` disables, default on.
SUPERBLOCKS_ENV = "REVNIC_SUPERBLOCKS"

_DISABLED = ("off", "0", "no", "false", "disabled")

#: Mutable cells shared with every generated superblock: [chains formed,
#: chain runs, member blocks executed inside chains, dirty-deopt exits,
#: loop-chain back-edges taken].  Deterministic -- tests assert the tier
#: actually ran (or deopted, or looped).
_SB_CELLS = [0, 0, 0, 0, 0]


def superblock_counters():
    """Snapshot of the superblock-tier counters (deterministic)."""
    return {"superblocks_formed": _SB_CELLS[0],
            "superblock_runs": _SB_CELLS[1],
            "superblock_blocks": _SB_CELLS[2],
            "superblock_deopts": _SB_CELLS[3],
            "superblock_loop_iterations": _SB_CELLS[4]}


def superblocks_enabled():
    """The environment-default for consumers without an explicit
    setting."""
    return os.environ.get(SUPERBLOCKS_ENV, "").lower() not in _DISABLED


class SuperblockConfig:
    """Formation knobs: how hot a head must run before chaining and how
    many members one chain may fuse."""

    __slots__ = ("hot_threshold", "max_members")

    def __init__(self, hot_threshold=16, max_members=16):
        self.hot_threshold = hot_threshold
        self.max_members = max_members


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
    for index, block in enumerate(blocks):
        if index:
            _emit_boundary(w, block.pc, guard_code_writes)
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
               "    _s[1] += 1"]
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
              "        _s[2] += _n"]
    if loop:
        # Back-edges taken: every entry of the head after the first.
        footer.append("        _s[4] += (_n - 1) // %d" % len(blocks))
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
        w.line("    _s[3] += 1")
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

    def __init__(self, get_block, flavor, read_code=None, config=None,
                 epoch_source=None):
        if flavor not in ("dynamic", "static"):
            raise ValueError("unknown superblock flavor %r" % (flavor,))
        if flavor == "dynamic" and read_code is None:
            raise ValueError("dynamic superblocks need read_code")
        self._get_block = get_block
        self._flavor = flavor
        self._read = read_code
        self._epoch_source = epoch_source
        self._config = config if config is not None else SuperblockConfig()
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
        if count < self._config.hot_threshold:
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
        while len(blocks) < self._config.max_members:
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
        _SB_CELLS[0] += 1
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
                "<superblock-0x%08x>" % blocks[0].pc,
                extra={"_s": _SB_CELLS})
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
