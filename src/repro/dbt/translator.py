"""Instruction-by-instruction translation of R32 into IR."""

from repro.errors import DecodeError
from repro.isa.encoding import INSTR_SIZE, NO_REG, decode
from repro.isa.opcodes import Op
from repro.isa.registers import REG_SP
from repro.ir import nodes as N

_MASK32 = 0xFFFFFFFF

_ALU_TO_BIN = {
    Op.ADD: N.BinKind.ADD, Op.SUB: N.BinKind.SUB, Op.AND: N.BinKind.AND,
    Op.OR: N.BinKind.OR, Op.XOR: N.BinKind.XOR, Op.SHL: N.BinKind.SHL,
    Op.SHR: N.BinKind.SHR, Op.SAR: N.BinKind.SAR, Op.MUL: N.BinKind.MUL,
    Op.DIVU: N.BinKind.DIVU, Op.REMU: N.BinKind.REMU,
}

_BRANCH_TO_CMP = {
    Op.BEQ: N.CmpKind.EQ, Op.BNE: N.CmpKind.NE, Op.BLT: N.CmpKind.SLT,
    Op.BGE: N.CmpKind.SGE, Op.BLTU: N.CmpKind.ULT, Op.BGEU: N.CmpKind.UGE,
}

_LOAD_WIDTH = {Op.LD8: 1, Op.LD16: 2, Op.LD32: 4}
_STORE_WIDTH = {Op.ST8: 1, Op.ST16: 2, Op.ST32: 4}
_IN_WIDTH = {Op.IN8: 1, Op.IN16: 2, Op.IN32: 4}
_OUT_WIDTH = {Op.OUT8: 1, Op.OUT16: 2, Op.OUT32: 4}

#: Safety bound on instructions per translation block (straight-line code
#: without a terminator longer than this is pathological).
MAX_BLOCK_INSTRS = 512


class _Emitter:
    """Per-block temp allocator and op list."""

    def __init__(self):
        self.ops = []
        self.next_temp = 0

    def temp(self):
        t = self.next_temp
        self.next_temp += 1
        return t

    def emit(self, op):
        self.ops.append(op)
        return op

    def const(self, value):
        t = self.temp()
        self.emit(N.IrConst(t, value & _MASK32))
        return t

    def get_reg(self, reg):
        t = self.temp()
        self.emit(N.IrGetReg(t, reg))
        return t

    def set_reg(self, reg, src):
        self.emit(N.IrSetReg(reg, src))

    def bin(self, kind, a, b):
        t = self.temp()
        self.emit(N.IrBin(t, kind, a, b))
        return t

    def addr(self, base_reg, disp):
        base = self.get_reg(base_reg)
        if disp == 0:
            return base
        return self.bin(N.BinKind.ADD, base, self.const(disp))


def translate_block(read_code, pc):
    """Translate one block starting at guest address ``pc``.

    ``read_code(address, size)`` returns raw guest bytes.  Translation stops
    at the first control-flow-altering instruction (the terminator), exactly
    like QEMU's translator.
    """
    emitter = _Emitter()
    instr_addrs = []
    instr_spans = []
    current = pc
    for _ in range(MAX_BLOCK_INSTRS):
        try:
            raw = read_code(current, INSTR_SIZE)
            instr = decode(raw)
        except Exception:
            # A fetch/decode failure *past* the first instruction
            # truncates the block: the valid prefix executes and falls
            # through to the faulting address, whose own (re)translation
            # raises -- giving block execution exactly the per-step
            # interpreter's partial-effects-then-fault behaviour.
            if instr_addrs:
                break
            raise
        instr_addrs.append(current)
        next_pc = (current + INSTR_SIZE) & _MASK32
        span_start = len(emitter.ops)
        done = _translate_instr(emitter, instr, current, next_pc)
        instr_spans.append((span_start, len(emitter.ops)))
        current = next_pc
        if done:
            break
    else:
        raise DecodeError("translation block at 0x%08x exceeds %d instrs"
                          % (pc, MAX_BLOCK_INSTRS))
    return N.TranslationBlock(pc=pc, size=current - pc,
                              instr_addrs=instr_addrs, ops=emitter.ops,
                              instr_spans=instr_spans)


def _translate_instr(em, instr, pc, next_pc):
    """Emit IR for one instruction; returns True when it terminates the
    block."""
    op = instr.op

    if op == Op.NOP:
        return False
    if op == Op.HALT:
        em.emit(N.IrHalt())
        return True
    if op == Op.MOV:
        em.set_reg(instr.a, em.get_reg(instr.b))
        return False
    if op == Op.MOVI:
        em.set_reg(instr.a, em.const(instr.imm))
        return False
    if op in _LOAD_WIDTH:
        address = em.addr(instr.b, instr.imm)
        t = em.temp()
        em.emit(N.IrLoad(t, address, _LOAD_WIDTH[op]))
        em.set_reg(instr.a, t)
        return False
    if op in _STORE_WIDTH:
        address = em.addr(instr.a, instr.imm)
        em.emit(N.IrStore(address, em.get_reg(instr.b), _STORE_WIDTH[op]))
        return False
    if op == Op.PUSH:
        sp = em.get_reg(REG_SP)
        new_sp = em.bin(N.BinKind.SUB, sp, em.const(4))
        em.set_reg(REG_SP, new_sp)
        em.emit(N.IrStore(new_sp, em.get_reg(instr.a), 4))
        return False
    if op == Op.POP:
        sp = em.get_reg(REG_SP)
        t = em.temp()
        em.emit(N.IrLoad(t, sp, 4))
        em.set_reg(instr.a, t)
        em.set_reg(REG_SP, em.bin(N.BinKind.ADD, sp, em.const(4)))
        return False
    if op in _ALU_TO_BIN:
        a = em.get_reg(instr.b)
        b = em.const(instr.imm) if instr.c == NO_REG else em.get_reg(instr.c)
        em.set_reg(instr.a, em.bin(_ALU_TO_BIN[op], a, b))
        return False
    if op == Op.NOT:
        t = em.temp()
        em.emit(N.IrNot(t, em.get_reg(instr.b)))
        em.set_reg(instr.a, t)
        return False
    if op == Op.NEG:
        t = em.temp()
        em.emit(N.IrNeg(t, em.get_reg(instr.b)))
        em.set_reg(instr.a, t)
        return False
    if op in _BRANCH_TO_CMP:
        a = em.get_reg(instr.a)
        b = em.get_reg(instr.b)
        t = em.temp()
        em.emit(N.IrCmp(t, _BRANCH_TO_CMP[op], a, b))
        em.emit(N.IrCondJump(t, instr.imm, next_pc))
        return True
    if op == Op.JMP:
        em.emit(N.IrJump(instr.imm, indirect=False))
        return True
    if op == Op.JMPR:
        em.emit(N.IrJump(em.get_reg(instr.a), indirect=True))
        return True
    if op == Op.CALL or op == Op.CALLR:
        # Explicit return-address push, then the call terminator.
        sp = em.get_reg(REG_SP)
        new_sp = em.bin(N.BinKind.SUB, sp, em.const(4))
        em.set_reg(REG_SP, new_sp)
        em.emit(N.IrStore(new_sp, em.const(next_pc), 4))
        if op == Op.CALL:
            em.emit(N.IrCall(instr.imm, indirect=False, return_pc=next_pc))
        else:
            em.emit(N.IrCall(em.get_reg(instr.a), indirect=True,
                             return_pc=next_pc))
        return True
    if op == Op.RET:
        sp = em.get_reg(REG_SP)
        t = em.temp()
        em.emit(N.IrLoad(t, sp, 4))
        em.set_reg(REG_SP, em.bin(N.BinKind.ADD, sp,
                                  em.const(4 + instr.imm)))
        em.emit(N.IrRet(t, instr.imm))
        return True
    if op in _IN_WIDTH:
        port = em.addr(instr.b, instr.imm)
        t = em.temp()
        em.emit(N.IrIn(t, port, _IN_WIDTH[op]))
        em.set_reg(instr.a, t)
        return False
    if op in _OUT_WIDTH:
        port = em.addr(instr.a, instr.imm)
        em.emit(N.IrOut(port, em.get_reg(instr.b), _OUT_WIDTH[op]))
        return False
    raise DecodeError("cannot translate opcode %s at 0x%08x" % (op, pc))


class CodeWindow:
    """An immutable snapshot of loaded guest code.

    Captured by the engine at the end of a run (after relocation), it is a
    pure ``read_code`` source: the synthesizer's missing-block fallback can
    force translation at any address inside the window without a live
    machine or engine -- which is what makes reverse-engineering results
    serializable (see :mod:`repro.pipeline.artifact`).
    """

    __slots__ = ("base", "data")

    def __init__(self, base, data):
        self.base = base
        self.data = bytes(data)

    @property
    def size(self):
        return len(self.data)

    def read(self, address, size):
        """Raw code bytes at guest ``address`` (zero-filled past the end)."""
        offset = address - self.base
        if offset < 0:
            raise DecodeError("address 0x%08x below code window" % address)
        chunk = self.data[offset:offset + size]
        if len(chunk) < size:
            chunk += b"\x00" * (size - len(chunk))
        return chunk

    def translator(self):
        """A fresh caching :class:`Translator` over this window."""
        return Translator(self.read)


#: Translated blocks shared across translators, ``pc -> [(block, raw)]``:
#: the same driver image loaded into many machines translates once.  A
#: block is a pure function of its ``pc`` and the bytes it covers, so a
#: candidate whose ``raw`` equals the current guest bytes is exactly the
#: block a fresh translation would build (compiled function included).
#: Only terminated blocks are shared -- a block truncated by a fetch or
#: decode fault depends on bytes past its end.  Every hit re-checks the
#: bytes, so patched or reloaded code can never match a stale entry and
#: ``invalidate()`` need not touch this table.  Bounded like
#: ``compile._SHARED_PROGRAMS``: cleared once it holds
#: ``_SHARED_BLOCKS_MAX`` blocks (live translators keep theirs).
_SHARED_BLOCKS = {}
_SHARED_BLOCKS_MAX = 8192
_shared_count = 0


def _share(block, raw):
    global _shared_count
    if _shared_count >= _SHARED_BLOCKS_MAX:
        _SHARED_BLOCKS.clear()
        _shared_count = 0
    _SHARED_BLOCKS.setdefault(block.pc, []).append((block, raw))
    _shared_count += 1


class Translator:
    """Caching DBT front end.

    Cached blocks are validated against the *entire* current code bytes of
    the block before being served, so self-modifying or reloaded code
    retranslates ("the DBT cannot translate all the code at once, because
    the code may not be available in advance").  Checking only the first
    instruction is not enough: a patch landing past a block's first
    instruction would otherwise keep serving the stale translation.
    A miss in the per-translator cache consults the shared
    ``_SHARED_BLOCKS`` table under the same byte check before translating.
    """

    def __init__(self, read_code):
        self._read_code = read_code
        self._cache = {}

    def get(self, pc):
        """Translate (or fetch from cache) the block at ``pc``."""
        current = None
        cached = self._cache.get(pc)
        if cached is not None:
            block, raw = cached
            current = bytes(self._read_code(pc, block.size))
            if current == raw:
                return block
        for entry in _SHARED_BLOCKS.get(pc, ()):
            block, raw = entry
            try:
                if bytes(self._read_code(pc, block.size)) != raw:
                    continue
            except Exception:
                continue
            self._cache[pc] = entry
            return block
        block = translate_block(self._read_code, pc)
        if current is None or len(current) != block.size:
            current = bytes(self._read_code(pc, block.size))
        self._cache[pc] = (block, current)
        if isinstance(block.terminator, N.TERMINATOR_TYPES):
            _share(block, current)
        return block

    def invalidate(self):
        self._cache.clear()
