"""The superblock tier: formation, codegen, and consumer equivalence.

Formation is tested against hand-built translation blocks (what chains
may and may not fuse); the consumer tests drive the real original-binary
harness and the synthesized-driver runtime in the ``"compiled"`` tier
with superblocks forced hot (the formation thresholds patched) and
assert the observations are bit-identical to the ``"blocks"`` tier --
the same claim the validation matrix makes across OSes, applied across
execution tiers.
"""

import itertools
from unittest import mock

import pytest

from repro.counters import counting
from repro.dbt import Translator
from repro.drivers import build_driver, device_class
from repro.errors import SynthesisError, VmFault
from repro.eval.runner import get_cache
from repro.guestos.harness import DriverHarness
from repro.hw import Ne2000Device
from repro.hw import ne2000 as NE
from repro.ir import (
    SuperblockManager,
    TranslationBlock,
    superblock_source,
)
from repro.ir import IrEnv
from repro.ir import nodes as N
from repro.isa import Instruction, Op, encode
from repro.isa.encoding import INSTR_SIZE
from repro.isa.registers import REG_SP
from repro.layout import (
    HEAP_BASE,
    HEAP_LIMIT,
    STACK_LIMIT,
    STACK_TOP,
    TEXT_BASE,
    page_align,
)
from repro.net import UdpWorkload
from repro.synth.module import SynthesizedDriver
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import CATALOG, run_scenario
from repro.vm import ExitReason, Machine

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

#: Formation thresholds the tests patch (to 1: chains form at a head's
#: first dispatch).
_HOT_THRESHOLD = "repro.ir.superblock.HOT_THRESHOLD"
_MAX_MEMBERS = "repro.ir.superblock.MAX_MEMBERS"


def _block(pc, terminator, n_instr=2, reg=1):
    """A synthetic translation block: sets ``r<reg> = pc`` then ends in
    ``terminator`` (``None`` for a terminator-less split-block head)."""
    ops = [N.IrConst(dst=0, value=pc), N.IrSetReg(reg=reg, src=0)]
    if terminator is not None:
        ops.append(terminator)
    return TranslationBlock(
        pc=pc, size=n_instr * INSTR_SIZE,
        instr_addrs=[pc + i * INSTR_SIZE for i in range(n_instr)],
        ops=ops)


def _linear(block_map, start, count, stride=0x40):
    """``count`` blocks chained by direct jumps starting at ``start``."""
    pcs = [start + i * stride for i in range(count)]
    for i, pc in enumerate(pcs):
        term = N.IrJump(target=pcs[i + 1]) if i + 1 < count else N.IrHalt()
        block_map[pc] = _block(pc, term)
    return pcs


@mock.patch(_HOT_THRESHOLD, 1)
class TestFormation:
    def _manager(self, block_map):
        return SuperblockManager(block_map.get, "static")

    def test_direct_jump_chain(self):
        block_map = {}
        pcs = _linear(block_map, 0x1000, 3)
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert sb is not None
        assert [b.pc for b in sb.blocks] == pcs

    @mock.patch(_MAX_MEMBERS, 4)
    def test_max_members_bounds_chain(self):
        block_map = {}
        pcs = _linear(block_map, 0x1000, 12)
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert [b.pc for b in sb.blocks] == pcs[:4]

    def test_back_edge_stops_chain(self):
        block_map = {
            0x1000: _block(0x1000, N.IrJump(target=0x1040)),
            0x1040: _block(0x1040, N.IrJump(target=0x1000)),
        }
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert [b.pc for b in sb.blocks] == [0x1000, 0x1040]

    @pytest.mark.parametrize("terminator", [
        N.IrCall(target=0x2000, indirect=False, return_pc=0x1010),
        N.IrRet(addr=1, cleanup=0),
        N.IrHalt(),
        N.IrJump(target=1, indirect=True),
    ])
    def test_chain_never_grows_past(self, terminator):
        """Calls, returns, halts and indirect jumps end a chain: they
        may terminate the last member but never link to another."""
        block_map = {
            0x1000: _block(0x1000, N.IrJump(target=0x1040)),
            0x1040: _block(0x1040, terminator),
            0x2000: _block(0x2000, N.IrHalt()),
        }
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert [b.pc for b in sb.blocks] == [0x1000, 0x1040]

    def test_unchainable_head_declined_once(self):
        """A head whose terminator immediately ends the chain is marked
        declined: later lookups return None without refetching."""
        calls = []

        def get_block(pc):
            calls.append(pc)
            return _block(pc, N.IrHalt())

        manager = SuperblockManager(get_block, "static")
        assert manager.lookup(0x1000) is None
        fetches = len(calls)
        assert manager.lookup(0x1000) is None
        assert len(calls) == fetches, "declined heads must not refetch"

    def test_terminator_less_head_falls_through(self):
        """Split-block heads (no terminator) chain to their end_pc."""
        block_map = {
            0x1000: _block(0x1000, None),
            0x1010: _block(0x1010, N.IrHalt()),
        }
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert [b.pc for b in sb.blocks] == [0x1000, 0x1010]

    def test_condjump_follows_hotter_edge(self):
        taken, fallthrough = 0x1200, 0x1040
        block_map = {
            0x1000: _block(0x1000, N.IrCondJump(cond=0, target=taken,
                                                fallthrough=fallthrough)),
            fallthrough: _block(fallthrough, N.IrHalt()),
            taken: _block(taken, N.IrHalt()),
        }
        manager = self._manager(block_map)
        with mock.patch(_HOT_THRESHOLD, 3):
            # Two observed traversals of the taken edge, none of the other.
            assert manager.lookup(0x1000) is None
            assert manager.lookup(taken) is None
            assert manager.lookup(0x1000) is None
            assert manager.lookup(taken) is None
            sb = manager.lookup(0x1000)
            assert sb is not None
            assert [b.pc for b in sb.blocks] == [0x1000, taken]

    def test_condjump_tie_prefers_fallthrough(self):
        taken, fallthrough = 0x1200, 0x1040
        block_map = {
            0x1000: _block(0x1000, N.IrCondJump(cond=0, target=taken,
                                                fallthrough=fallthrough)),
            fallthrough: _block(fallthrough, N.IrHalt()),
            taken: _block(taken, N.IrHalt()),
        }
        manager = self._manager(block_map)
        with mock.patch(_HOT_THRESHOLD, 3):
            assert manager.lookup(0x1000) is None
            assert manager.lookup(taken) is None
            assert manager.lookup(0x1000) is None
            assert manager.lookup(fallthrough) is None
            sb = manager.lookup(0x1000)
            assert [b.pc for b in sb.blocks] == [0x1000, fallthrough]

    def test_invalidate_drops_chains_and_profile(self):
        block_map = {}
        _linear(block_map, 0x1000, 3)
        manager = self._manager(block_map)
        assert manager.lookup(0x1000) is not None
        manager.invalidate()
        assert not manager._supers and not manager._counts
        assert manager.lookup(0x1000) is not None

    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            SuperblockManager({}.get, "jit")
        with pytest.raises(ValueError):
            SuperblockManager({}.get, "dynamic")  # needs read_code


class TestCodegen:
    def _blocks(self):
        block_map = {}
        _linear(block_map, 0x1000, 3)
        return [block_map[0x1000 + i * 0x40] for i in range(3)]

    def test_source_is_deterministic(self):
        blocks = self._blocks()
        assert superblock_source(blocks, True) \
            == superblock_source(blocks, True)
        assert superblock_source(blocks, False) \
            == superblock_source(blocks, False)

    def test_static_flavor_has_no_store_guard(self):
        blocks = self._blocks()
        dynamic = superblock_source(blocks, True)
        static = superblock_source(blocks, False)
        assert "_w" in dynamic and "env.cpu.pc" in dynamic
        assert "_w" not in static and "env.cpu.pc" not in static

    def test_counters_flush_in_finally(self):
        source = superblock_source(self._blocks(), False)
        assert "finally:" in source
        assert "env.instrs_retired += _i" in source


@mock.patch(_HOT_THRESHOLD, 1)
class TestHarnessEquivalence:
    """Original binary, full driver lifecycle: ``"blocks"`` vs
    ``"compiled"`` (superblocks off vs on)."""

    def _lifecycle(self, exec_backend):
        harness = DriverHarness(build_driver("rtl8029"),
                                device_class("rtl8029"), mac=MAC,
                                exec_backend=exec_backend)
        harness.boot()
        workload = UdpWorkload(MAC, PEER, 128)
        statuses = [harness.send(workload.next_frame().to_bytes())
                    for _ in range(4)]
        delivered = harness.inject_rx(
            UdpWorkload(PEER, MAC, 64).next_frame().to_bytes())
        statuses.append(harness.halt())
        cpu = harness.machine.cpu
        return {
            "statuses": statuses,
            "delivered": [f.hex() for f in delivered],
            "wire": [f.hex() for f in harness.medium.transmitted],
            "instret": cpu.instret,
            "io_ops": cpu.io_ops,
            "mem_ops": cpu.mem_ops,
            "irqs": harness.env.irq_count,
        }

    def test_lifecycle_identical_and_chains_ran(self):
        baseline = self._lifecycle("blocks")
        with counting() as work:
            fused = self._lifecycle("compiled")
        assert fused == baseline
        assert work["superblock_runs"] > 0, \
            "a hot boot+TX+RX lifecycle must actually dispatch chains"

    def test_scenario_observation_identical(self):
        scenario = CATALOG["udp_stream"]
        observations = []
        for exec_backend in ("blocks", "compiled"):
            dut = OriginalDut("rtl8029", exec_backend=exec_backend)
            dut.boot()
            observations.append(run_scenario(dut, scenario).to_dict())
            dut.shutdown()
        assert observations[0] == observations[1]


@mock.patch(_HOT_THRESHOLD, 1)
class TestSynthesizedEquivalence:
    """Synthesized driver in the target-OS template: ``"blocks"`` vs
    ``"compiled"``."""

    def _lifecycle(self, artifact, exec_backend):
        target = TARGET_OSES["winsim"](device_class("rtl8029"), mac=MAC)
        template = DmaNicTemplate(artifact.synthesized, target,
                                  original_image=artifact.image,
                                  exec_backend=exec_backend)
        template.initialize()
        workload = UdpWorkload(MAC, PEER, 96)
        statuses = [template.send(workload.next_frame().to_bytes())
                    for _ in range(3)]
        env = template.runtime.env
        return {
            "statuses": statuses,
            "wire": [f.hex() for f in target.medium.transmitted],
            "instrs": env.instrs_retired,
            "ops": env.ops_retired,
            "io_ops": env.io_ops,
            "irqs": target.irq_count,
        }

    def test_template_identical_and_chains_ran(self):
        artifact = get_cache().run("rtl8029")
        baseline = self._lifecycle(artifact, "blocks")
        with counting() as work:
            fused = self._lifecycle(artifact, "compiled")
        assert fused == baseline
        assert work["superblock_runs"] > 0


@mock.patch(_HOT_THRESHOLD, 1)
class TestLoopFormation:
    def _manager(self, block_map):
        return SuperblockManager(block_map.get, "static")

    def test_self_looping_block_forms_a_loop_chain(self):
        block_map = {0x1000: _block(0x1000, N.IrJump(target=0x1000))}
        sb = self._manager(block_map).lookup(0x1000)
        assert sb is not None and sb.loop
        assert [b.pc for b in sb.blocks] == [0x1000]

    def test_continuation_into_head_is_a_loop(self):
        block_map = {
            0x1000: _block(0x1000, N.IrJump(target=0x1040)),
            0x1040: _block(0x1040, N.IrJump(target=0x1000)),
        }
        assert self._manager(block_map).lookup(0x1000).loop

    def test_cycle_not_through_head_is_no_loop(self):
        block_map = {
            0x1000: _block(0x1000, N.IrJump(target=0x1040)),
            0x1040: _block(0x1040, N.IrJump(target=0x1080)),
            0x1080: _block(0x1080, N.IrJump(target=0x1040)),
        }
        sb = self._manager(block_map).lookup(0x1000)
        assert not sb.loop
        assert [b.pc for b in sb.blocks] == [0x1000, 0x1040, 0x1080]

    def test_loop_source_runs_the_members_in_a_while_loop(self):
        blocks = [_block(0x1000, N.IrJump(target=0x1000))]
        looped = superblock_source(blocks, False, loop=True)
        assert "while True:" in looped
        assert "while True:" not in superblock_source(blocks, False)

    def test_dynamic_back_edge_checks_the_write_epoch(self):
        blocks = [_block(0x1000, N.IrJump(target=0x1000))]
        assert "ram.write_epoch != _e" in \
            superblock_source(blocks, True, loop=True)
        assert "write_epoch" not in \
            superblock_source(blocks, False, loop=True)


#: The loop the differential tests run: a two-block body (split by a
#: ``jmp`` to the next instruction) storing, reloading and counting.
#: r11 counts every block that runs, so it *is* the dispatcher's
#: blocks-run count.
_SCRATCH = HEAP_BASE + 0x100
#: A start that walks the second member's ``st32 [r5+0x40]`` off the
#: end of the heap in the fourth trip, inside the running loop chain.
_FAULTING_SCRATCH = HEAP_LIMIT - 0x46
_TRIPS = 5
_HEAD = 4           # index of the first loop instruction
_PATCH_AT = 6       # index of the ``movi r8`` the patch variants rewrite
_SECOND = 11        # index of the second member
_EXIT = 17          # index of the block after the loop
_PATCH_PORT = 0x300


def _at(index):
    return TEXT_BASE + index * INSTR_SIZE


def _loop_program(end, variant="plain", scratch=_SCRATCH):
    """The loop as instructions.  ``end`` is the final instruction
    (``HALT`` for the CPU, ``RET 0`` for the synthesized runtime).  The
    ``"store-patch"`` variant has the second member store the trip
    counter into the immediate of the first member's ``movi r8``;
    ``"dma-patch"`` has the first member ``out`` it to a device that
    DMA-writes it there (see :class:`_CodePatcher`)."""
    count = Instruction(Op.ADD, 11, 11, imm=1)
    nop = Instruction(Op.NOP)
    return [
        Instruction(Op.MOVI, 5, imm=scratch),
        Instruction(Op.MOVI, 10, imm=_TRIPS),
        Instruction(Op.MOVI, 9, imm=_at(_PATCH_AT) + 4),
        Instruction(Op.MOVI, 14, imm=0),
        # first member (_HEAD)
        Instruction(Op.ADD, 14, 14, imm=1),
        Instruction(Op.ST8, 5, 14, imm=0),
        Instruction(Op.MOVI, 8, imm=0),             # _PATCH_AT
        Instruction(Op.ADD, 12, 12, 8),
        Instruction(Op.OUT32, 0, 14, imm=_PATCH_PORT)
        if variant == "dma-patch" else nop,
        count,
        Instruction(Op.JMP, imm=_at(_SECOND)),
        # second member (_SECOND)
        Instruction(Op.LD16, 6, 5, imm=0),
        Instruction(Op.ST32, 5, 6, imm=0x40),
        Instruction(Op.ST32, 9, 14, imm=0)
        if variant == "store-patch" else nop,
        Instruction(Op.ADD, 5, 5, imm=1),
        count,
        Instruction(Op.BLTU, 14, 10, imm=_at(_HEAD)),
        # after the loop (_EXIT)
        count,
        end,
    ]


class _CodePatcher:
    """A port device whose writes DMA the value into the loop's code:
    a patch no store guard sees, only the memory's write epoch."""

    def __init__(self, bus):
        self.bus = bus

    def io_read(self, offset, width):
        return 0

    def io_write(self, offset, width, value):
        self.bus.dma_write(_at(_PATCH_AT) + 4, value.to_bytes(4, "little"))


def _load(program):
    machine = Machine()
    code = b"".join(encode(i) for i in program)
    machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
    machine.memory.write_bytes(TEXT_BASE, code)
    machine.bus.attach_ports(_PATCH_PORT, 4, _CodePatcher(machine.bus))
    return machine, len(code)


#: Hot at the second lookup, once the back-edge has been profiled.
@mock.patch(_HOT_THRESHOLD, 2)
class TestLoopDifferential:
    """A loop chain cut by every instruction and block budget from zero
    past its natural end stops where per-block ``interp`` dispatch
    stops: same registers, memory, pc, counters and blocks run."""

    def _cpu_run(self, budget, backend, variant, scratch):
        machine, size = _load(
            _loop_program(Instruction(Op.HALT), variant, scratch))
        cpu = machine.cpu
        cpu.exec_backend = backend
        cpu.pc = TEXT_BASE
        try:
            outcome = cpu.run(max_steps=budget)
        except VmFault as exc:
            outcome = type(exc).__name__
        return (outcome, list(cpu.regs), cpu.pc, cpu.instret, cpu.io_ops,
                cpu.mem_ops, machine.memory.read_bytes(scratch, 0x46),
                machine.memory.read_bytes(TEXT_BASE, size))

    def _every_instruction_budget(self, variant="plain", scratch=_SCRATCH):
        """Compare every budget up to the one the run finishes at, and
        one past it; returns the finished run and the counter deltas."""
        finished = 0
        with counting() as work:
            for budget in itertools.count():
                fused = self._cpu_run(budget, "compiled", variant, scratch)
                assert fused == self._cpu_run(budget, "interp", variant,
                                              scratch), \
                    "diverged at max_steps=%d" % budget
                finished += fused[0] is not ExitReason.STEP_LIMIT
                if finished == 2:
                    break
        return fused, work

    def test_dynamic_every_instruction_budget(self):
        fused, delta = self._every_instruction_budget()
        assert fused[0] is ExitReason.HALT and fused[1][14] == _TRIPS
        assert delta["superblock_loop_iterations"] > 0

    @pytest.mark.parametrize("variant", ["store-patch", "dma-patch"])
    def test_dynamic_patch_inside_loop(self, variant):
        """Each trip sees the immediate the previous trip wrote: a store
        patching a member deopts at the next boundary, a DMA patch exits
        at the back-edge, both exactly where per-block dispatch
        retranslates."""
        fused, delta = self._every_instruction_budget(variant)
        assert fused[1][14] == _TRIPS
        assert fused[1][12] == sum(range(_TRIPS))
        if variant == "store-patch":
            assert delta["superblock_deopts"] > 0

    def test_dynamic_fault_inside_loop(self):
        """The faulting member's pc and the flushed counters match
        per-block dispatch when a store faults in a later trip."""
        fused, delta = self._every_instruction_budget(
            scratch=_FAULTING_SCRATCH)
        assert fused[0] == "MemoryFault" and fused[1][14] == 4
        assert delta["superblock_loop_iterations"] > 0

    def _static_run(self, max_blocks, backend):
        machine, _size = _load(_loop_program(Instruction(Op.RET, imm=0)))
        translator = Translator(machine.memory.read_bytes)
        block_map = {_at(index): translator.get(_at(index))
                     for index in (0, _HEAD, _SECOND, _EXIT)}
        driver = SynthesizedDriver(
            name="loop", functions={}, entry_points={}, c_source="",
            c_per_function={}, report=None, import_names={},
            block_map=block_map)
        env = IrEnv.for_machine(machine)
        env.regs[REG_SP] = STACK_TOP
        outcome = "returned"
        try:
            driver.run_function(TEXT_BASE, env, [], None,
                                max_blocks=max_blocks, backend=backend)
        except SynthesisError:
            outcome = "budget"
        return (outcome, list(env.regs), env.instrs_retired,
                env.ops_retired, env.io_ops, env.mem_ops,
                machine.memory.read_bytes(_SCRATCH, 0x60))

    def test_static_every_block_budget(self):
        returned = []
        with counting() as work:
            for max_blocks in range(2 * _TRIPS + 3):
                fused = self._static_run(max_blocks, "compiled")
                assert fused == self._static_run(max_blocks, "interp"), \
                    "diverged at max_blocks=%d" % max_blocks
                if fused[0] == "returned":
                    returned.append(max_blocks)
                else:
                    # r11 counts blocks: the budget stopped exactly at it.
                    assert fused[1][11] == max_blocks
        # Prologue + two members per trip + the exit block.
        assert returned == [2 * _TRIPS + 1, 2 * _TRIPS + 2]
        assert fused[1][14] == _TRIPS
        assert work["superblock_loop_iterations"] > 0


# -- stream transfers ----------------------------------------------------

#: The copy loop the stream tests run, with ``r1`` the NE2000's port
#: base, ``r3`` the RAM pointer (the destination of a RAM-to-RAM copy,
#: whose source is ``r2``) and ``r4`` the byte count set by the caller:
#: a head testing ``r4 != 0`` (or ``r4 >=u width``), the exit, ``gap``
#: unexecuted instruction slots, and the body moving one element between
#: the data port and RAM, or within RAM.
_NE_PORT = 0x300
_COPY_BUF = HEAP_BASE + 0x200
_COPY_BODY = 3      # index of the body when there is no gap


_WIDTH_OPS = {1: (Op.LD8, Op.ST8, Op.IN8, Op.OUT8),
              2: (Op.LD16, Op.ST16, Op.IN16, Op.OUT16),
              4: (Op.LD32, Op.ST32, Op.IN32, Op.OUT32)}


def _copy_program(end, direction="read", width=1, gap=0, until="zero"):
    body = _at(_COPY_BODY + gap)
    load_op, store_op, in_op, out_op = _WIDTH_OPS[width]
    if direction == "write":
        move = [Instruction(load_op, 5, 3),
                Instruction(out_op, 1, 5, imm=NE.REG_DATA)]
    elif direction == "ram":
        move = [Instruction(load_op, 5, 2),
                Instruction(store_op, 3, 5),
                Instruction(Op.ADD, 2, 2, imm=width)]
    else:
        move = [Instruction(in_op, 5, 1, imm=NE.REG_DATA),
                Instruction(store_op, 3, 5)]
    if until == "zero":
        head = [Instruction(Op.MOVI, 12, imm=0),
                Instruction(Op.BNE, 4, 12, imm=body)]
    else:
        head = [Instruction(Op.MOVI, 12, imm=width),
                Instruction(Op.BGEU, 4, 12, imm=body)]
    return (head + [end]
            + [Instruction(Op.NOP)] * gap
            + move
            + [Instruction(Op.ADD, 3, 3, imm=width),
               Instruction(Op.SUB, 4, 4, imm=width),
               Instruction(Op.JMP, imm=TEXT_BASE)])


class _PlainPort:
    """A data port without stream methods: reads count up."""

    def __init__(self):
        self.log = []

    def io_read(self, offset, width):
        self.log.append(("r", offset, width))
        return len(self.log) & ((1 << 8 * width) - 1)

    def io_write(self, offset, width, value):
        self.log.append(("w", offset, width, value))


def _ne_device():
    """An NE2000 whose remote byte count runs out during the second
    0x40-byte transfer, so every later access raises an interrupt."""
    dev = Ne2000Device(b"\x52\x54\x00\x01\x02\x03")
    dev.mem[:] = bytes((3 + 7 * i) & 0xFF for i in range(len(dev.mem)))
    dev.rsar, dev.rbcr, dev.imr = NE.MEM_BASE, 0x50, NE.ISR_RDC
    dev.irqs = 0

    def raised():
        dev.irqs += 1
    dev.irq_callback = raised
    return dev


def _device_state(device):
    if isinstance(device, _PlainPort):
        return list(device.log)
    return (bytes(device.mem), device.rsar, device.rbcr, device.isr,
            device.irqs)


def _copy_machine(program, device):
    machine = Machine()
    code = b"".join(encode(i) for i in program)
    machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
    machine.memory.write_bytes(TEXT_BASE, code)
    machine.memory.write_bytes(
        _COPY_BUF, bytes((5 + 11 * i) & 0xFF for i in range(0x200)))
    machine.bus.attach_ports(_NE_PORT, 0x20, device)
    return machine


#: Hot at the second lookup, once the back-edge has been profiled.
@mock.patch(_HOT_THRESHOLD, 2)
class TestStreamDeopt:
    """The copy loop runs as stream transfers in the ``"compiled"`` tier
    and leaves exactly what per-block ``interp`` dispatch leaves --
    registers, pc, counters, RAM, device state and interrupts -- also
    in every case where the transfer must fall back to ordinary
    iterations."""

    def _cpu_calls(self, backend, calls, direction="read", width=1, gap=0,
                   until="zero", device=_ne_device, budget=10_000,
                   between=None, observer=False):
        """Run the loop once per ``(pointer, count[, source])`` in
        ``calls`` on one machine (the chain formed by one call serves the
        next); returns what each call left and the elements each
        streamed."""
        device = device()
        machine = _copy_machine(
            _copy_program(Instruction(Op.HALT), direction, width, gap,
                          until), device)
        seen = []
        if observer:
            machine.bus.observer = lambda *event: seen.append(event)
        cpu = machine.cpu
        cpu.exec_backend = backend
        results, streamed = [], []
        for index, (pointer, count, *source) in enumerate(calls):
            if between is not None:
                between(index, machine, seen)
            cpu.regs[1], cpu.regs[3], cpu.regs[4] = _NE_PORT, pointer, count
            cpu.regs[2] = source[0] if source else 0
            cpu.pc = TEXT_BASE
            with counting() as work:
                try:
                    outcome = cpu.run(max_steps=budget)
                except VmFault as exc:
                    outcome = type(exc).__name__
            streamed.append(work["superblock_stream_elements"])
            results.append((outcome, list(cpu.regs), cpu.pc, cpu.instret,
                            cpu.io_ops, cpu.mem_ops,
                            machine.memory.read_bytes(_COPY_BUF, 0x200),
                            _device_state(device), len(seen)))
        return results, streamed

    def _agree(self, calls, **options):
        """Both tiers leave the same; returns the compiled tier's
        streamed elements per call."""
        fused, streamed = self._cpu_calls("compiled", calls, **options)
        reference, _ = self._cpu_calls("interp", calls, **options)
        assert fused == reference
        return fused, streamed

    @pytest.mark.parametrize("direction", ["read", "write"])
    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("until", ["zero", "below-width"])
    def test_copy_streams(self, direction, width, until):
        """With ``r4 >=u width`` as the loop test, the bytes past the
        last whole element stay for the code after the loop."""
        count = 0x40 if until == "zero" else 0x43
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (_COPY_BUF + 0x80, count)],
            direction=direction, width=width, until=until)
        assert fused[-1][0] is ExitReason.HALT
        assert fused[-1][1][4] == count % width
        # Formed in the first call.  The second call's first iteration
        # runs ordinarily: fetching the exit block made the code region
        # the last one hit.  Every other element streams.
        assert streamed[0] > 0 and streamed[1] == count // width - 1

    @pytest.mark.parametrize("width", [1, 4])
    def test_ram_copy_streams_unless_the_ranges_overlap(self, width):
        """A forward element copy onto an overlapping higher range
        repeats the first elements; a slice copy would not.  Copying 4
        bytes up, only the last 4 bytes' ranges are disjoint."""
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40, _COPY_BUF + 0x100),
             (_COPY_BUF + 0x40, 0x40, _COPY_BUF + 0x140),
             (_COPY_BUF + 0x84, 0x40, _COPY_BUF + 0x80)],
            direction="ram", width=width)
        assert streamed[1] == 0x40 // width - 1
        assert streamed[2] == 4 // width
        assert fused[-1][6][0x84:0x88] == fused[-1][6][0x80:0x84]

    def test_observer_before_the_run(self):
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (_COPY_BUF + 0x80, 0x40)], observer=True)
        assert streamed == [0, 0]
        assert fused[-1][-1] == 0x80      # every access was observed

    def test_observer_set_mid_run(self):
        def attach(index, machine, seen):
            if index == 1:
                machine.bus.observer = lambda *event: seen.append(event)

        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (_COPY_BUF + 0x80, 0x40)], between=attach)
        assert streamed[0] > 0 and streamed[1] == 0
        assert fused[-1][-1] == 0x40

    def test_device_without_stream_methods(self):
        _fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (_COPY_BUF + 0x80, 0x40)],
            device=_PlainPort)
        assert streamed == [0, 0]

    def test_pointer_outside_the_hit_region(self):
        """The stack is not the region last hit: the first iteration
        runs ordinarily (and makes it the hit), the rest stream."""
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (STACK_LIMIT + 0x100, 0x40)])
        assert fused[-1][0] is ExitReason.HALT
        assert streamed[1] == 0x40 - 1

    def test_pointer_crossing_a_region_end(self):
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (HEAP_LIMIT - 0x10, 0x40)])
        assert fused[-1][0] == "MemoryFault"
        assert streamed[1] == 0

    def test_store_into_the_watched_code_span(self):
        """Stores into the unexecuted gap inside the chain's own code
        span: every transfer falls back, and the self-patch guard
        deopts the ordinary iterations."""
        gap_start = _at(_COPY_BODY)
        with counting() as work:
            _fused, streamed = self._agree(
                [(_COPY_BUF, 0x20), (gap_start, 0x20)], gap=8)
        assert streamed[1] == 0
        assert work["superblock_deopts"] > 0

    def test_instruction_budget_ends_mid_transfer(self):
        """Every budget from 0 past the run's end: the transfer is
        clamped to the iterations the budget allows."""
        partial = 0
        for budget in range(0, 2 + 7 * 0x18):
            _fused, streamed = self._agree([(_COPY_BUF, 0x18)],
                                           budget=budget)
            partial += streamed[0] > 0
        assert partial > 0

    @pytest.mark.parametrize("width,count", [(1, 0), (4, 6)])
    def test_no_complete_iteration(self, width, count):
        """No trip count: a zero count exits at the head, and a count
        off the width's multiples never reaches ``r4 == 0`` (it runs
        ordinary iterations to the budget)."""
        fused, streamed = self._agree(
            [(_COPY_BUF, 0x40), (_COPY_BUF + 0x100, count)], width=width,
            budget=600)
        assert streamed[1] == 0
        if count:
            assert fused[-1][0] is ExitReason.STEP_LIMIT

    def _static_run(self, max_blocks, backend):
        device = _ne_device()
        machine = _copy_machine(
            _copy_program(Instruction(Op.RET, imm=0)), device)
        translator = Translator(machine.memory.read_bytes)
        block_map = {_at(index): translator.get(_at(index))
                     for index in (0, 2, _COPY_BODY)}
        driver = SynthesizedDriver(
            name="copy", functions={}, entry_points={}, c_source="",
            c_per_function={}, report=None, import_names={},
            block_map=block_map)
        env = IrEnv.for_machine(machine)
        env.regs[REG_SP] = STACK_TOP
        env.regs[1], env.regs[3], env.regs[4] = _NE_PORT, _COPY_BUF, 0x10
        outcome = "returned"
        with counting() as work:
            try:
                driver.run_function(TEXT_BASE, env, [], None,
                                    max_blocks=max_blocks, backend=backend)
            except SynthesisError:
                outcome = "budget"
        return (outcome, list(env.regs), env.instrs_retired,
                env.ops_retired, env.io_ops, env.mem_ops,
                machine.memory.read_bytes(_COPY_BUF, 0x20),
                _device_state(device)), work["superblock_stream_elements"]

    def test_block_budget_ends_mid_transfer(self):
        partial = 0
        for max_blocks in range(2 * 0x10 + 3):
            fused, streamed = self._static_run(max_blocks, "compiled")
            assert fused == self._static_run(max_blocks, "interp")[0], \
                "diverged at max_blocks=%d" % max_blocks
            partial += fused[0] == "budget" and streamed > 0
        assert fused[0] == "returned" and partial > 0
