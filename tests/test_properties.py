"""Property-based tests (hypothesis) on core invariants."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.errors import VmFault
from repro.ir.superblock import superblock_counters
from repro.isa import Instruction, Op, decode, encode
from repro.isa.encoding import INSTR_SIZE, NO_REG
from repro.layout import HEAP_BASE, MMIO_BASE, TEXT_BASE, page_align
from repro.net.crc import crc32_ethernet
from repro.net.packet import build_udp_packet, parse_udp_packet
from repro.symex import expr as E
from repro.symex.memory import SymMemory
from repro.symex.solver import Solver
from repro.vm import Machine
from repro.vm.bus import NO_DEVICE

reg = st.integers(min_value=0, max_value=15)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)

#: Patched to 1 so superblocks form at a head's first dispatch.
_HOT_THRESHOLD = "repro.ir.superblock.HOT_THRESHOLD"


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
        step = self._execute(instrs, "step")
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
    The superblock tier runs with chains forming at a head's first
    dispatch.
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
    def _run(program, backend):
        machine = Machine()
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        cpu = machine.cpu
        cpu.exec_backend = backend
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
        step, _ = self._run(program, "step")
        interp, interp_ret = self._run(program, "interp")
        compiled, compiled_ret = self._run(program, "blocks")
        with mock.patch(_HOT_THRESHOLD, 1):
            fused, fused_ret = self._run(program, "compiled")
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

        def run_limited(exec_backend):
            machine = Machine()
            code = b"".join(encode(i) for i in program)
            machine.memory.map_region(TEXT_BASE, page_align(len(code)),
                                      "text")
            machine.memory.write_bytes(TEXT_BASE, code)
            cpu = machine.cpu
            cpu.exec_backend = exec_backend
            cpu.pc = TEXT_BASE
            fault = None
            reason = None
            try:
                reason = cpu.run(max_steps=limit)
            except VmFault as exc:
                fault = type(exc).__name__
            return (reason, fault, list(cpu.regs), cpu.pc, cpu.instret,
                    cpu.mem_ops, machine.memory.read_bytes(_SCRATCH, 0x100))

        with mock.patch(_HOT_THRESHOLD, 1):
            assert run_limited("blocks") == run_limited("compiled")


_PORT_BASE, _PORT_SIZE = 0x300, 0x20
_DEV_MMIO, _DEV_MMIO_SIZE = MMIO_BASE + 0x1000, 0x100
_ADDR_REG = 11


class _RecordingDevice:
    """Claims a port range and an MMIO range; logs every register access
    and answers reads with a value derived from the log length."""

    def __init__(self, log):
        self.log = log

    def _read(self, kind, offset, width):
        self.log.append((kind, "r", offset, width))
        return (0x9E3779B1 * len(self.log)) & ((1 << 8 * width) - 1)

    def io_read(self, offset, width):
        return self._read("port", offset, width)

    def io_write(self, offset, width, value):
        self.log.append(("port", "w", offset, width, value))

    def mmio_read(self, offset, width):
        return self._read("mmio", offset, width)

    def mmio_write(self, offset, width, value):
        self.log.append(("mmio", "w", offset, width, value))


_inside_ports = st.integers(min_value=_PORT_BASE,
                            max_value=_PORT_BASE + _PORT_SIZE - 1)
_outside_ports = st.sampled_from([0, _PORT_BASE - 1, _PORT_BASE + _PORT_SIZE,
                                  0xFFFFFFFF])
_inside_mmio = st.integers(min_value=_DEV_MMIO,
                           max_value=_DEV_MMIO + _DEV_MMIO_SIZE - 1)
_outside_mmio = st.sampled_from([MMIO_BASE, _DEV_MMIO - 1,
                                 _DEV_MMIO + _DEV_MMIO_SIZE])
_ram = st.integers(min_value=_SCRATCH, max_value=_SCRATCH + 0xFC)


@st.composite
def device_access(draw):
    """``MOVI r11, address`` plus one port or memory access through r11:
    inside or outside the bound device ranges, or to RAM.  Outside
    accesses (a bus error) are rarer so most programs run past a few
    accesses first."""
    kind = draw(st.sampled_from(["in", "out", "load", "store"]))
    width = 1 << draw(st.integers(min_value=0, max_value=2))
    value_reg = draw(_GEN_REGS.filter(lambda r: r != _ADDR_REG))
    outside = draw(st.integers(min_value=0, max_value=3)) == 0
    if kind in ("in", "out"):
        address = draw(_outside_ports if outside else _inside_ports)
        op = {("in", 1): Op.IN8, ("in", 2): Op.IN16, ("in", 4): Op.IN32,
              ("out", 1): Op.OUT8, ("out", 2): Op.OUT16,
              ("out", 4): Op.OUT32}[kind, width]
    else:
        address = draw(_outside_mmio if outside else
                       st.one_of(_inside_mmio, _ram))
        op = {("load", 1): Op.LD8, ("load", 2): Op.LD16,
              ("load", 4): Op.LD32, ("store", 1): Op.ST8,
              ("store", 2): Op.ST16, ("store", 4): Op.ST32}[kind, width]
    if kind in ("in", "load"):
        access = Instruction(op, value_reg, _ADDR_REG)
    else:
        access = Instruction(op, _ADDR_REG, value_reg)
    return [Instruction(Op.MOVI, _ADDR_REG, imm=address), access]


class TestDeviceDispatchDifferential:
    """Port and MMIO accesses -- inside the bus's bound device ranges,
    outside them (unclaimed: a bus error), with and without an observer,
    with one claimed range per space (compiled code calls the device
    directly) or two (every access goes through the bus) -- must leave
    identical registers, memory, counters, device and observer logs and
    faults on every tier.  The accesses sit in a loop so superblocks
    form over them."""

    @staticmethod
    def _build(chunks, filler, trips):
        program = [Instruction(Op.MOVI, _MEM_BASE_REG, imm=_SCRATCH),
                   Instruction(Op.MOVI, 13, imm=trips),
                   Instruction(Op.MOVI, 14, imm=0)]
        loop_start = len(program)
        for chunk, extra in zip(chunks, filler):
            program.extend(chunk)
            program.append(extra)
        program.append(Instruction(Op.ADD, 14, 14, imm=1))
        program.append(Instruction(
            Op.BLTU, 14, 13, imm=TEXT_BASE + loop_start * INSTR_SIZE))
        program.append(Instruction(Op.HALT))
        return program

    @staticmethod
    def _run(program, backend, observed, second_range):
        machine = Machine()
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        log, seen = [], []
        device = _RecordingDevice(log)
        bus = machine.bus
        bus.attach_ports(_PORT_BASE, _PORT_SIZE, device)
        bus.attach_mmio(_DEV_MMIO, _DEV_MMIO_SIZE, device)
        if second_range:
            other = _RecordingDevice(log)
            bus.attach_ports(0x1000, 0x10, other)
            bus.attach_mmio(MMIO_BASE + 0x8000, 0x10, other)
        if observed:
            bus.observer = lambda *event: seen.append(event)
        bound = not observed and not second_range
        assert (bus.port_hit[0] == _PORT_BASE) == bound
        assert (bus.mmio_hit[0] == _DEV_MMIO) == bound
        cpu = machine.cpu
        cpu.exec_backend = backend
        cpu.pc = TEXT_BASE
        fault = None
        try:
            cpu.run(max_steps=10_000)
        except VmFault as exc:
            fault = (type(exc).__name__, str(exc))
        return (fault, list(cpu.regs), cpu.io_ops, cpu.mem_ops, log, seen,
                machine.memory.read_bytes(_SCRATCH, 0x100))

    @settings(max_examples=100, deadline=None)
    @given(chunks=st.lists(device_access(), min_size=1, max_size=10),
           filler=st.lists(random_instruction(), min_size=10, max_size=10),
           trips=st.integers(min_value=1, max_value=3),
           observed=st.booleans(), second_range=st.booleans())
    def test_tiers_agree(self, chunks, filler, trips, observed,
                         second_range):
        program = self._build(chunks, filler, trips)
        step = self._run(program, "step", observed, second_range)
        for backend in ("interp", "blocks"):
            assert self._run(program, backend, observed,
                             second_range) == step
        with mock.patch(_HOT_THRESHOLD, 1):
            assert self._run(program, "compiled", observed,
                             second_range) == step
        if observed:
            # The observer saw exactly the device-side accesses.
            assert len(step[5]) == len(step[4])

    @pytest.mark.parametrize("kind,address", [
        (kind, address)
        for kind in ("in", "out")
        for address in (_PORT_BASE - 1, _PORT_BASE,
                        _PORT_BASE + _PORT_SIZE - 1, _PORT_BASE + _PORT_SIZE)
    ] + [
        (kind, address)
        for kind in ("load", "store")
        for address in (_DEV_MMIO - 1, _DEV_MMIO,
                        _DEV_MMIO + _DEV_MMIO_SIZE - 1,
                        _DEV_MMIO + _DEV_MMIO_SIZE)
    ])
    def test_range_edges_agree(self, kind, address):
        op = {"in": Op.IN32, "out": Op.OUT16, "load": Op.LD32,
              "store": Op.ST8}[kind]
        if kind in ("in", "load"):
            access = Instruction(op, 3, _ADDR_REG)
        else:
            access = Instruction(op, _ADDR_REG, 3)
        chunk = [Instruction(Op.MOVI, 3, imm=0xA5C3E1F7),
                 Instruction(Op.MOVI, _ADDR_REG, imm=address), access]
        program = self._build([chunk], [Instruction(Op.NOP)], 2)
        step = self._run(program, "step", False, False)
        inside = address in (_PORT_BASE, _PORT_BASE + _PORT_SIZE - 1,
                             _DEV_MMIO, _DEV_MMIO + _DEV_MMIO_SIZE - 1)
        assert (step[0] is None) == inside
        for backend in ("interp", "blocks"):
            assert self._run(program, backend, False, False) == step
        with mock.patch(_HOT_THRESHOLD, 1):
            assert self._run(program, "compiled", False, False) == step


class TestObserverRebinding:
    """An observer attached after an execution environment was built is
    still seen by compiled code -- it reads the bus's binding on every
    access -- and detaching it restores the direct device path."""

    @staticmethod
    def _block():
        from repro.ir import nodes as N
        from repro.ir.nodes import TranslationBlock

        ops = [N.IrConst(dst=0, value=_PORT_BASE + 4),
               N.IrIn(dst=1, port=0, width=2),
               N.IrConst(dst=2, value=_DEV_MMIO + 8),
               N.IrStore(addr=2, src=1, width=4),
               N.IrLoad(dst=3, addr=2, width=1),
               N.IrOut(port=0, src=3, width=1),
               N.IrSetReg(reg=1, src=3),
               N.IrHalt()]
        return TranslationBlock(pc=0x1000, size=8, instr_addrs=[0x1000],
                                ops=ops)

    def test_observer_attached_after_env_then_detached(self):
        from repro.ir.compile import compile_block
        from repro.ir.interp import IrEnv

        machine = Machine()
        log, seen, via_bus = [], [], []
        device = _RecordingDevice(log)
        bus = machine.bus
        bus.attach_ports(_PORT_BASE, _PORT_SIZE, device)
        bus.attach_mmio(_DEV_MMIO, _DEV_MMIO_SIZE, device)
        env = IrEnv.for_machine(machine)
        for name in ("io_read", "io_write", "mem_read", "mem_write"):
            def counted(*args, _name=name, _fn=getattr(env, name)):
                via_bus.append(_name)
                return _fn(*args)
            setattr(env, name, counted)
        run = compile_block(self._block())

        run(env)
        assert len(log) == 4 and via_bus == [] and seen == []

        bus.observer = lambda *event: seen.append(event)
        assert bus.port_hit == bus.mmio_hit == NO_DEVICE
        run(env)
        assert len(log) == 8
        assert via_bus == ["io_read", "mem_write", "mem_read", "io_write"]
        assert [event[:3] for event in seen] == [
            ("port", _PORT_BASE + 4, 2), ("mmio", _DEV_MMIO + 8, 4),
            ("mmio", _DEV_MMIO + 8, 1), ("port", _PORT_BASE + 4, 1)]
        assert [event[4] for event in seen] == [False, True, False, True]

        bus.observer = None
        assert bus.port_hit[:3] == (_PORT_BASE, _PORT_BASE + _PORT_SIZE,
                                    device.io_read)
        assert bus.mmio_hit[:3] == (_DEV_MMIO, _DEV_MMIO + _DEV_MMIO_SIZE,
                                    device.mmio_read)
        run(env)
        assert len(log) == 12 and len(via_bus) == 4 and len(seen) == 4
        assert (env.io_ops, env.mem_ops) == (12, 0)

    def test_observer_attached_mid_run_by_a_device(self):
        """The CPU's adapter is built at run start; a device that sets
        the observer from inside a block is seen from the next access."""
        machine = Machine()
        log, seen = [], []
        bus = machine.bus

        class Toggle(_RecordingDevice):
            def io_write(self, offset, width, value):
                super().io_write(offset, width, value)
                if offset == 0:
                    bus.observer = (lambda *event: seen.append(event)) \
                        if value else None

        bus.attach_ports(_PORT_BASE, _PORT_SIZE, Toggle(log))
        program = [Instruction(Op.MOVI, 1, imm=_PORT_BASE),
                   Instruction(Op.MOVI, 2, imm=1),
                   Instruction(Op.MOVI, 3, imm=0),
                   Instruction(Op.IN8, 4, 1, imm=4),     # unobserved
                   Instruction(Op.OUT8, 1, 2),           # observer on
                   Instruction(Op.IN8, 4, 1, imm=5),     # observed
                   Instruction(Op.OUT8, 1, 3),           # observed, off
                   Instruction(Op.IN8, 4, 1, imm=6),     # unobserved
                   Instruction(Op.HALT)]
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        machine.cpu.exec_backend = "blocks"
        machine.cpu.pc = TEXT_BASE
        machine.cpu.run(max_steps=100)
        assert len(log) == 5
        assert [event[1:3] for event in seen] == [(_PORT_BASE + 5, 1),
                                                 (_PORT_BASE, 1)]
        assert bus.observer is None and bus.port_hit[0] == _PORT_BASE


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
