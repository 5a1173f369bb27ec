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

from repro.dbt import Translator
from repro.drivers import build_driver, device_class
from repro.errors import SynthesisError, VmFault
from repro.eval.runner import get_cache
from repro.guestos.harness import DriverHarness
from repro.ir import (
    SuperblockManager,
    TranslationBlock,
    superblock_counters,
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
        before = superblock_counters()
        fused = self._lifecycle("compiled")
        after = superblock_counters()
        assert fused == baseline
        assert after["superblock_runs"] > before["superblock_runs"], \
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
        before = superblock_counters()
        fused = self._lifecycle(artifact, "compiled")
        after = superblock_counters()
        assert fused == baseline
        assert after["superblock_runs"] > before["superblock_runs"]


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
        before = superblock_counters()
        finished = 0
        for budget in itertools.count():
            fused = self._cpu_run(budget, "compiled", variant, scratch)
            assert fused == self._cpu_run(budget, "interp", variant,
                                          scratch), \
                "diverged at max_steps=%d" % budget
            finished += fused[0] is not ExitReason.STEP_LIMIT
            if finished == 2:
                break
        after = superblock_counters()
        return fused, {key: after[key] - before[key] for key in after}

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
        before = superblock_counters()
        returned = []
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
        after = superblock_counters()
        assert after["superblock_loop_iterations"] > \
            before["superblock_loop_iterations"]
