"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.errors import VmFault
from repro.ir.superblock import SuperblockConfig, superblock_counters
from repro.isa import Instruction, Op, decode, encode
from repro.isa.encoding import INSTR_SIZE, NO_REG
from repro.layout import HEAP_BASE, TEXT_BASE, page_align
from repro.net.crc import crc32_ethernet
from repro.net.packet import build_udp_packet, parse_udp_packet
from repro.symex import expr as E
from repro.symex.memory import SymMemory
from repro.symex.solver import Solver
from repro.vm import Machine

reg = st.integers(min_value=0, max_value=15)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)


class TestEncodingProperties:
    @given(a=reg, b=reg, c=reg, imm=u32,
           op=st.sampled_from([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
                               Op.MUL, Op.SHL]))
    def test_alu_roundtrip(self, op, a, b, c, imm):
        instr = Instruction(op, a, b, c, imm)
        assert decode(encode(instr)) == instr

    @given(a=reg, b=reg, imm=u32,
           op=st.sampled_from([Op.LD8, Op.LD16, Op.LD32, Op.ST8, Op.ST16,
                               Op.ST32, Op.IN8, Op.OUT32]))
    def test_memory_roundtrip(self, op, a, b, imm):
        instr = Instruction(op, a, b, imm=imm)
        assert decode(encode(instr)) == instr


class TestExprSemantics:
    """Expression builders must agree with direct evaluation."""

    @given(x=u32, y=u32, kind=st.sampled_from(list(E.BINOP_BUILDERS)))
    def test_binop_on_constants_matches_evaluate(self, x, y, kind):
        sym_x, sym_y = E.bv_sym("x"), E.bv_sym("y")
        expr = E.BINOP_BUILDERS[kind](sym_x, sym_y)
        folded = E.BINOP_BUILDERS[kind](x, y)
        assert E.evaluate(expr, {"x": x, "y": y}) == \
            (folded if isinstance(folded, int)
             else E.evaluate(folded, {"x": x, "y": y}))

    @given(x=u32, c=u32, kind=st.sampled_from(
        ["eq", "ne", "ult", "uge", "slt", "sge"]))
    def test_cmp_matches_fold(self, x, c, kind):
        sym = E.bv_sym("x")
        expr = E.bv_cmp(kind, sym, c)
        expected = E.bv_cmp(kind, x, c)
        value = expr if isinstance(expr, int) else \
            E.evaluate(expr, {"x": x})
        assert value == expected

    @given(x=u32, lo=st.integers(min_value=0, max_value=24))
    def test_extract_evaluate(self, x, lo):
        sym = E.bv_sym("x")
        expr = E.bv_extract(sym, lo, 8)
        assert E.evaluate(expr, {"x": x}) == (x >> lo) & 0xFF

    @given(x=u32)
    def test_negation_involution(self, x):
        sym = E.bv_sym("x")
        cond = E.bv_cmp("ult", sym, 100)
        negated = E.bool_not(cond)
        assert E.evaluate(cond, {"x": x}) + E.evaluate(negated, {"x": x}) \
            == 1


class TestSolverSoundness:
    """Any model the solver returns must actually satisfy the query."""

    @settings(max_examples=30)
    @given(bound=u32, mask=u8)
    def test_models_satisfy(self, bound, mask):
        solver = Solver()
        x = E.bv_sym("x")
        constraints = [E.bv_cmp("ult", x, bound)]
        if mask:
            constraints.append(E.bv_cmp("eq", E.bv_and(x, mask), 0))
        model = solver.find_model(constraints)
        if model is not None:
            for constraint in constraints:
                assert E.evaluate(constraint, model) == 1
        else:
            # unsat claims only allowed when the query is truly hard/unsat;
            # bound == 0 makes it genuinely unsatisfiable
            assert bound == 0 or mask


class TestSymMemoryProperties:
    @settings(max_examples=50)
    @given(address=st.integers(min_value=0, max_value=0xFFFF),
           value=u32, width=st.sampled_from([1, 2, 4]))
    def test_write_read_roundtrip(self, address, value, width):
        memory = SymMemory(lambda a, w: 0)
        memory.write(address, width, value)
        assert memory.read(address, width) == \
            value & ((1 << (8 * width)) - 1)

    @settings(max_examples=30)
    @given(address=st.integers(min_value=0, max_value=0xFFFF), value=u32)
    def test_fork_isolation(self, address, value):
        memory = SymMemory(lambda a, w: 0)
        memory.write(address, 4, value)
        child = memory.fork()
        child.write(address, 4, value ^ 0xFFFFFFFF)
        assert memory.read(address, 4) == value
        assert child.read(address, 4) == value ^ 0xFFFFFFFF


class TestChecksumProperties:
    @given(data=st.binary(min_size=0, max_size=64))
    def test_crc_deterministic(self, data):
        assert crc32_ethernet(data) == crc32_ethernet(data)

    @given(data=st.binary(min_size=1, max_size=64), flip=st.integers(0, 7))
    def test_crc_detects_single_bit_flip(self, data, flip):
        corrupted = bytes([data[0] ^ (1 << flip)]) + data[1:]
        assert crc32_ethernet(data) != crc32_ethernet(corrupted)

    @given(payload=st.binary(min_size=0, max_size=200),
           sport=st.integers(1, 65535), dport=st.integers(1, 65535))
    def test_udp_roundtrip(self, payload, sport, dport):
        packet = build_udp_packet(b"\x0a\0\0\x01", b"\x0a\0\0\x02",
                                  sport, dport, payload)
        parsed = parse_udp_packet(packet)
        assert parsed["payload"] == payload
        assert parsed["src_port"] == sport
        assert parsed["dst_port"] == dport


_GEN_REGS = st.integers(min_value=0, max_value=11)  # r12 reserved: mem base
_MEM_BASE_REG = 12
_SCRATCH = HEAP_BASE + 0x800

_ALU = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SAR,
        Op.MUL, Op.DIVU, Op.REMU]


@st.composite
def random_instruction(draw):
    """One R32 instruction from the deterministic concrete subset."""
    shape = draw(st.sampled_from(
        ["alu_rr", "alu_ri", "mov", "movi", "not", "neg", "load", "store"]))
    a, b, c = draw(_GEN_REGS), draw(_GEN_REGS), draw(_GEN_REGS)
    imm = draw(u32)
    if shape == "alu_rr":
        return Instruction(draw(st.sampled_from(_ALU)), a, b, c)
    if shape == "alu_ri":
        return Instruction(draw(st.sampled_from(_ALU)), a, b, imm=imm)
    if shape == "mov":
        return Instruction(Op.MOV, a, b)
    if shape == "movi":
        return Instruction(Op.MOVI, a, imm=imm)
    if shape == "not":
        return Instruction(Op.NOT, a, b)
    if shape == "neg":
        return Instruction(Op.NEG, a, b)
    disp = draw(st.integers(min_value=0, max_value=0xFC))
    if shape == "load":
        op = draw(st.sampled_from([Op.LD8, Op.LD16, Op.LD32]))
        return Instruction(op, a, _MEM_BASE_REG, imm=disp)
    op = draw(st.sampled_from([Op.ST8, Op.ST16, Op.ST32]))
    return Instruction(op, _MEM_BASE_REG, b, imm=disp)


class TestBackendDifferential:
    """Random R32 instruction sequences must produce identical register
    files, memory, and faults across the per-instruction CPU interpreter,
    the tree-walking IR interpreter, and the compiled block backend.

    A forward conditional branch is planted mid-sequence so the program
    splits into several translation blocks; DIVU/REMU with arbitrary
    operands makes genuine divide-by-zero faults part of the property.
    """

    @staticmethod
    def _execute(instrs, exec_backend):
        machine = Machine()
        program = [Instruction(Op.MOVI, _MEM_BASE_REG, imm=_SCRATCH)]
        program.extend(instrs)
        # After inserting the branch and appending HALT the program has
        # len(program) + 2 instructions; the HALT sits on the last one.
        end = TEXT_BASE + (len(program) + 1) * INSTR_SIZE
        # Forward branch over the second half: both sides of the split
        # are exercised depending on the generated register contents.
        program.insert(len(program) // 2,
                       Instruction(Op.BLTU, 0, 1, imm=end))
        program.append(Instruction(Op.HALT))
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        cpu = machine.cpu
        cpu.exec_backend = exec_backend
        cpu.pc = TEXT_BASE
        fault = None
        try:
            cpu.run(max_steps=10_000)
        except VmFault as exc:
            fault = type(exc).__name__
        return (fault, list(cpu.regs),
                machine.memory.read_bytes(_SCRATCH, 0x100))

    @settings(max_examples=60, deadline=None)
    @given(instrs=st.lists(random_instruction(), min_size=1, max_size=24))
    def test_three_backends_agree(self, instrs):
        step = self._execute(instrs, None)
        interp = self._execute(instrs, "interp")
        compiled = self._execute(instrs, "compiled")
        assert step == interp
        assert step == compiled


class TestSuperblockDifferential:
    """Random hot-trace-shaped programs -- a loop body crossing several
    translation blocks via a conditional fall-through, a direct jump,
    and the loop back-edge -- must be indistinguishable across all four
    execution tiers.  The superblock tier keeps its architectural
    counters in locals and flushes them in ``finally``, so the tuple
    compared here includes ``instret``/``mem_ops``/``io_ops`` to pin
    the counter contract under faults as well as on clean exits.
    """

    _segment = st.lists(random_instruction(), min_size=1, max_size=8)

    @staticmethod
    def _build(seg_a, seg_b, seg_c, trips):
        program = [
            Instruction(Op.MOVI, _MEM_BASE_REG, imm=_SCRATCH),
            Instruction(Op.MOVI, 13, imm=trips),
            Instruction(Op.MOVI, 14, imm=0),
        ]
        loop_start = len(program)
        program.extend(seg_a)
        branch_at = len(program)
        program.append(None)          # bltu r0, r1, <skip seg_b>
        program.extend(seg_b)
        skip_index = len(program)
        program[branch_at] = Instruction(
            Op.BLTU, 0, 1, imm=TEXT_BASE + skip_index * INSTR_SIZE)
        jump_at = len(program)
        program.append(None)          # jmp <next instruction>
        program[jump_at] = Instruction(
            Op.JMP, imm=TEXT_BASE + (jump_at + 1) * INSTR_SIZE)
        program.extend(seg_c)
        program.append(Instruction(Op.ADD, 14, 14, imm=1))
        program.append(Instruction(
            Op.BLTU, 14, 13, imm=TEXT_BASE + loop_start * INSTR_SIZE))
        program.append(Instruction(Op.HALT))
        return program

    @staticmethod
    def _run(program, backend, superblocks=False):
        machine = Machine()
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        cpu = machine.cpu
        cpu.exec_backend = backend
        cpu.exec_superblocks = superblocks
        cpu.pc = TEXT_BASE
        fault = None
        try:
            cpu.run(max_steps=10_000)
        except VmFault as exc:
            fault = type(exc).__name__
        arch = (fault, list(cpu.regs), cpu.mem_ops, cpu.io_ops,
                machine.memory.read_bytes(_SCRATCH, 0x100))
        return arch, (cpu.pc, cpu.instret)

    @settings(max_examples=40, deadline=None)
    @given(seg_a=_segment, seg_b=_segment, seg_c=_segment,
           trips=st.integers(min_value=2, max_value=4))
    def test_four_tiers_agree(self, seg_a, seg_b, seg_c, trips):
        program = self._build(seg_a, seg_b, seg_c, trips)
        step, _ = self._run(program, None)
        interp, interp_ret = self._run(program, "interp")
        compiled, compiled_ret = self._run(program, "compiled")
        fused, fused_ret = self._run(
            program, "compiled",
            superblocks=SuperblockConfig(hot_threshold=1))
        assert step == interp
        assert step == compiled
        assert step == fused
        # instret is charged at block entry in every DBT tier and a
        # faulting block reports its head pc (the per-step tier counts
        # and reports the exact instruction), so those two fields are
        # compared across the three DBT tiers only -- exactly.
        assert interp_ret == compiled_ret == fused_ret

    @settings(max_examples=20, deadline=None)
    @given(seg_a=_segment, seg_b=_segment, seg_c=_segment,
           trips=st.integers(min_value=2, max_value=4),
           limit=st.integers(min_value=1, max_value=60))
    def test_step_limit_boundaries_agree(self, seg_a, seg_b, seg_c, trips,
                                         limit):
        """Stopping mid-superblock at an arbitrary ``max_steps`` must
        leave exactly the same architectural state as the per-block
        tier stopping at the same instruction."""
        program = self._build(seg_a, seg_b, seg_c, trips)

        def run_limited(superblocks):
            machine = Machine()
            code = b"".join(encode(i) for i in program)
            machine.memory.map_region(TEXT_BASE, page_align(len(code)),
                                      "text")
            machine.memory.write_bytes(TEXT_BASE, code)
            cpu = machine.cpu
            cpu.exec_backend = "compiled"
            cpu.exec_superblocks = superblocks
            cpu.pc = TEXT_BASE
            fault = None
            reason = None
            try:
                reason = cpu.run(max_steps=limit)
            except VmFault as exc:
                fault = type(exc).__name__
            return (reason, fault, list(cpu.regs), cpu.pc, cpu.instret,
                    cpu.mem_ops, machine.memory.read_bytes(_SCRATCH, 0x100))

        assert run_limited(False) == \
            run_limited(SuperblockConfig(hot_threshold=1))


class TestAssemblerProperties:
    @settings(max_examples=25)
    @given(values=st.lists(u32, min_size=1, max_size=8))
    def test_word_data_roundtrip(self, values):
        source = ".export main\nmain:\n halt\n.data\ntable:\n .word " \
            + ", ".join(str(v) for v in values)
        image = assemble(source)
        for i, value in enumerate(values):
            stored = int.from_bytes(image.data[4 * i:4 * i + 4], "little")
            assert stored == value

    @settings(max_examples=25)
    @given(imm=u32, r=reg)
    def test_movi_roundtrip(self, imm, r):
        image = assemble(".export main\nmain:\n movi r%d, %d\n halt"
                         % (r, imm))
        instr = decode(image.text, 0)
        assert instr.op == Op.MOVI and instr.a == r and instr.imm == imm
