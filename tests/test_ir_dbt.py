"""Tests for the IR, the DBT, and differential CPU-vs-IR execution."""

from unittest import mock

import pytest

from repro.asm import assemble
from repro.counters import counting
from repro.dbt import Translator, translate_block
from repro.ir import IrEnv, TranslationBlock, format_block, run_block
from repro.ir import nodes as N
from repro.isa.registers import REG_SP
from repro.layout import RETURN_TO_OS, STACK_TOP, TEXT_BASE, page_align
from repro.vm import Machine

#: Patched to 1 so superblocks form at a head's first dispatch.
_HOT_THRESHOLD = "repro.ir.superblock.HOT_THRESHOLD"


def load(source):
    """Assemble + map at TEXT_BASE with relocations applied; returns machine."""
    image = assemble(source)
    machine = Machine()
    machine.memory.map_region(TEXT_BASE, page_align(max(len(image.text), 1)),
                              "text")
    text = bytearray(image.text)
    for reloc in image.relocs:
        if reloc.kind.name == "TEXT":
            old = int.from_bytes(text[reloc.site:reloc.site + 4], "little")
            text[reloc.site:reloc.site + 4] = \
                ((old + TEXT_BASE) & 0xFFFFFFFF).to_bytes(4, "little")
    machine.memory.write_bytes(TEXT_BASE, bytes(text))
    return machine


def reader(machine):
    return lambda addr, size: machine.memory.read_bytes(addr, size)


class TestTranslation:
    def test_block_ends_at_branch(self):
        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            beq r1, r2, main
            halt
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        assert len(block.instr_addrs) == 3
        assert isinstance(block.terminator, N.IrCondJump)
        assert block.terminator.fallthrough == TEXT_BASE + 24

    def test_block_ends_at_call(self):
        machine = load("""
        .export main
        main:
            movi r1, 1
            call main
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        term = block.terminator
        assert isinstance(term, N.IrCall)
        assert not term.indirect
        assert term.target == TEXT_BASE

    def test_ret_emits_stack_cleanup(self):
        machine = load("""
        .export main
        main:
            ret 8
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        assert isinstance(block.terminator, N.IrRet)
        assert block.terminator.cleanup == 8

    def test_static_successors(self):
        machine = load("""
        .export main
        main:
            movi r1, 0
            bz r1, main
            halt
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        succs = block.static_successors()
        assert TEXT_BASE in succs and len(succs) == 2

    def test_cache_hit(self):
        machine = load(".export main\nmain:\n halt")
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        second = translator.get(TEXT_BASE)
        assert first is second

    def test_cache_invalidation_on_code_change(self):
        machine = load(".export main\nmain:\n halt")
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        from repro.isa import Instruction, Op, encode
        machine.memory.write_bytes(TEXT_BASE, encode(Instruction(Op.NOP))
                                   + encode(Instruction(Op.HALT)))
        second = translator.get(TEXT_BASE)
        assert second is not first
        assert len(second.instr_addrs) == 2

    def test_cache_invalidation_on_mid_block_patch(self):
        """Code patched *past* the first instruction must retranslate --
        a cache keyed only on the block's first instruction serves a stale
        translation here.  The compiled tier rides the same discipline:
        the fresh block object compiles to a fresh function."""
        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """)
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        assert len(first.instr_addrs) == 3
        from repro.ir import compile_block
        first_fn = compile_block(first)
        from repro.isa import INSTR_SIZE, Instruction, Op, encode
        # Patch the *second* instruction (movi r2, 2 -> movi r2, 99).
        machine.memory.write_bytes(TEXT_BASE + INSTR_SIZE,
                                   encode(Instruction(Op.MOVI, 2, imm=99)))
        second = translator.get(TEXT_BASE)
        assert second is not first
        patched = [op for op in second.ops
                   if isinstance(op, N.IrConst) and op.value == 99]
        assert patched, "stale translation served for mid-block patch"
        assert compile_block(second) is not first_fn
        # And an unchanged block is still a cache hit afterwards.
        assert translator.get(TEXT_BASE) is second

    def test_code_changed_drops_both_cpu_caches(self):
        """One hook invalidates every code-derived cache: the decode cache
        (per-instruction tier) and the DBT translation cache -- loaders no
        longer have to remember them separately."""
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """)
        cpu = machine.cpu
        # Warm the decode cache (per-instruction tier) ...
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu._decode_cache
        assert cpu.regs[2] == 2
        # ... and the DBT translation cache (compiled tier).
        cpu.exec_backend = "compiled"
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu._translator._cache

        # A mid-block patch followed by the one hook.
        machine.memory.write_bytes(TEXT_BASE + INSTR_SIZE,
                                   encode(Instruction(Op.MOVI, 2, imm=99)))
        cpu.code_changed()
        assert not cpu._decode_cache
        assert not cpu._translator._cache

        # Both tiers observe the patch.
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu.regs[2] == 99
        cpu.exec_backend = "step"
        cpu.regs[2] = 0
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu.regs[2] == 99

    def test_printer_smoke(self):
        machine = load("""
        .export main
        main:
            movi r1, 5
            ld32 r2, [r1+4]
            st8 [r1+0], r2
            in16 r3, (r1+2)
            out32 (r1+0), r3
            push r2
            pop r3
            not r4, r3
            neg r5, r4
            add r6, r5, 1
            bne r6, r1, main
            halt
        """)
        text = format_block(translate_block(reader(machine), TEXT_BASE))
        for keyword in ("const", "load32", "store8", "in16", "out32",
                        "icmp.ne", "condjump"):
            assert keyword in text


DIFFERENTIAL_PROGRAMS = [
    # Each program ends in HALT; register files are compared afterwards.
    """
    .export main
    main:
        movi r1, 0xDEADBEEF
        movi r2, 0x12345678
        add r3, r1, r2
        sub r4, r1, r2
        xor r5, r1, r2
        and r6, r1, r2
        or r7, r1, r2
        mul r8, r1, r2
        halt
    """,
    """
    .export main
    main:
        movi r1, 0x80000001
        shr r2, r1, 1
        sar r3, r1, 1
        shl r4, r1, 3
        not r5, r1
        neg r6, r1
        movi r7, 13
        divu r8, r1, r7
        remu r9, r1, r7
        halt
    """,
    """
    .export main
    main:
        movi r1, 0
        movi r2, 0
    loop:
        add r2, r2, r1
        add r1, r1, 1
        blt r1, 10, loop
        halt
    """,
    """
    .export main
    main:
        movi r1, 0x00600000
        movi r2, 0xCAFEBABE
        st32 [r1+0], r2
        ld8 r3, [r1+0]
        ld16 r4, [r1+2]
        ld32 r5, [r1+0]
        push r5
        push r3
        pop r6
        pop r7
        halt
    """,
    """
    .export main
    main:
        movi r1, 3
        push r1
        call square
        mov r9, r0
        halt
    square:
        push fp
        mov fp, sp
        ld32 r1, [fp+8]
        mul r0, r1, r1
        pop fp
        ret 4
    """,
]


class TestDifferentialExecution:
    """The IR must have exactly the concrete CPU's semantics."""

    @pytest.mark.parametrize("source", DIFFERENTIAL_PROGRAMS)
    def test_cpu_vs_ir(self, source):
        # Run on the concrete CPU.
        cpu_machine = load(source)
        cpu_machine.cpu.pc = TEXT_BASE
        cpu_machine.cpu.regs[REG_SP] = STACK_TOP
        cpu_machine.cpu.run(max_steps=100_000)
        # Run through DBT + IR interpreter.
        ir_machine = load(source)
        env = IrEnv.for_machine(ir_machine)
        env.regs[REG_SP] = STACK_TOP
        translator = Translator(reader(ir_machine))
        pc = TEXT_BASE
        for _ in range(100_000):
            result = run_block(translator.get(pc), env)
            if result.kind == "halt":
                break
            pc = result.target
        else:
            pytest.fail("IR execution did not halt")
        assert env.regs == cpu_machine.cpu.regs

    def test_memory_side_effects_match(self):
        source = DIFFERENTIAL_PROGRAMS[3]
        cpu_machine = load(source)
        cpu_machine.cpu.pc = TEXT_BASE
        cpu_machine.cpu.regs[REG_SP] = STACK_TOP
        cpu_machine.cpu.run(max_steps=10_000)

        ir_machine = load(source)
        env = IrEnv.for_machine(ir_machine)
        env.regs[REG_SP] = STACK_TOP
        translator = Translator(reader(ir_machine))
        pc = TEXT_BASE
        while True:
            result = run_block(translator.get(pc), env)
            if result.kind == "halt":
                break
            pc = result.target
        assert (ir_machine.memory.read_bytes(0x00600000, 8)
                == cpu_machine.memory.read_bytes(0x00600000, 8))


class TestBlockHelpers:
    def test_contains_and_end(self):
        block = TranslationBlock(pc=0x100, size=16,
                                 instr_addrs=[0x100, 0x108])
        assert block.contains(0x108)
        assert not block.contains(0x110)
        assert block.end_pc == 0x110


@pytest.fixture()
def shared_blocks(monkeypatch):
    """An empty shared block table for the test (restored afterwards)."""
    from repro.dbt import translator as translator_module

    table = {}
    monkeypatch.setattr(translator_module, "_SHARED_BLOCKS", table)
    monkeypatch.setattr(translator_module, "_shared_count", 0)
    return table


def _map_at(machine, address, code, pages=1):
    """Map ``pages`` pages at TEXT_BASE and write ``code`` at ``address``."""
    page = page_align(1)
    machine.memory.map_region(TEXT_BASE, pages * page, "text")
    machine.memory.write_bytes(address, code)
    return machine


class TestSharedBlocks:
    """Translated blocks are shared across translators by content: one
    translation per distinct (pc, bytes), re-checked on every hit."""

    def test_same_image_shares_block_and_function(self, shared_blocks):
        from repro.ir import compile_block

        source = ".export main\nmain:\n movi r1, 7\n halt"
        first, second = load(source), load(source)
        block_a = Translator(reader(first)).get(TEXT_BASE)
        block_b = Translator(reader(second)).get(TEXT_BASE)
        assert block_a is block_b
        assert compile_block(block_a) is compile_block(block_b)
        assert shared_blocks[TEXT_BASE] == [(block_a, bytes(
            first.memory.read_bytes(TEXT_BASE, block_a.size)))]

    def test_patch_retranslates_only_in_the_patched_machine(
            self, shared_blocks):
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        source = """
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """
        patched, intact = load(source), load(source)
        translator_p = Translator(reader(patched))
        translator_i = Translator(reader(intact))
        original = translator_p.get(TEXT_BASE)
        assert translator_i.get(TEXT_BASE) is original
        patched.memory.write_bytes(TEXT_BASE + INSTR_SIZE,
                                   encode(Instruction(Op.MOVI, 2, imm=99)))
        fresh = translator_p.get(TEXT_BASE)
        assert fresh is not original
        assert any(isinstance(op, N.IrConst) and op.value == 99
                   for op in fresh.ops)
        assert translator_i.get(TEXT_BASE) is original
        assert Translator(reader(intact)).get(TEXT_BASE) is original
        assert Translator(reader(patched)).get(TEXT_BASE) is fresh

    def test_different_images_at_one_pc_get_their_own_blocks(
            self, shared_blocks):
        one = load(".export main\nmain:\n movi r1, 1\n halt")
        two = load(".export main\nmain:\n movi r1, 2\n halt")
        block_one = Translator(reader(one)).get(TEXT_BASE)
        block_two = Translator(reader(two)).get(TEXT_BASE)
        assert block_one is not block_two
        assert block_one.ops[0].value == 1 and block_two.ops[0].value == 2
        assert Translator(reader(one)).get(TEXT_BASE) is block_one
        assert Translator(reader(two)).get(TEXT_BASE) is block_two
        assert len(shared_blocks[TEXT_BASE]) == 2

    @pytest.mark.parametrize("cause", ["undecodable", "unmapped"])
    @pytest.mark.parametrize("truncated_first", [True, False])
    def test_truncated_block_is_never_shared(self, shared_blocks, cause,
                                             truncated_first):
        from repro.isa import Instruction, Op, encode

        movi = encode(Instruction(Op.MOVI, 1, imm=5))
        halt = encode(Instruction(Op.HALT))
        if cause == "undecodable":
            pc = TEXT_BASE
            short = _map_at(Machine(), pc, movi + b"\xff" * len(halt))
        else:
            # the second instruction falls on the next, unmapped page
            pc = TEXT_BASE + page_align(1) - len(movi)
            short = _map_at(Machine(), pc, movi)
        full = _map_at(Machine(), pc, movi + halt, pages=2)

        def get_short():
            block = Translator(reader(short)).get(pc)
            assert len(block.instr_addrs) == 1
            assert block.terminator is not None
            assert not isinstance(block.terminator, N.TERMINATOR_TYPES)
            return block

        if truncated_first:
            get_short()
            assert pc not in shared_blocks
        block = Translator(reader(full)).get(pc)
        assert len(block.instr_addrs) == 2
        assert isinstance(block.terminator, N.IrHalt)
        if not truncated_first:
            assert get_short() is not block
        assert shared_blocks[pc] == [(block, movi + halt)]

    def test_table_clears_at_its_bound(self, shared_blocks, monkeypatch):
        from repro.dbt import translator as translator_module
        from repro.isa import INSTR_SIZE

        monkeypatch.setattr(translator_module, "_SHARED_BLOCKS_MAX", 2)
        machine = load(".export main\nmain:\n halt\n halt\n halt")
        translator = Translator(reader(machine))
        pcs = [TEXT_BASE + i * INSTR_SIZE for i in range(3)]
        blocks = [translator.get(pc) for pc in pcs]
        assert set(shared_blocks) == {pcs[2]}
        # live translators keep what they translated
        assert translator.get(pcs[0]) is blocks[0]
        # a fresh one retranslates the dropped block
        assert Translator(reader(machine)).get(pcs[0]) is not blocks[0]

    def test_warm_matrix_rerun_is_identical_and_translates_nothing(
            self, shared_blocks, monkeypatch):
        from repro.dbt import translator as translator_module
        from repro.eval.runner import get_cache
        from repro.validate.matrix import ValidationMatrix

        def run():
            result = ValidationMatrix(orchestrator=get_cache(),
                                      drivers=["rtl8029"],
                                      os_names=["winsim"]).run()
            summary = result.summary()
            summary.pop("wall_seconds")
            cells = {key: cell.to_dict()
                     for key, cell in result.cells.items()}
            return summary, cells

        first = run()
        calls = []
        real = translator_module.translate_block

        def counting(read_code, pc):
            calls.append(pc)
            return real(read_code, pc)

        monkeypatch.setattr(translator_module, "translate_block", counting)
        second = run()
        assert second == first
        assert first[0]["scenarios_run"] > 0
        assert calls == []


# A hot loop whose body crosses two translation blocks (the bltu inside
# splits it); every superblock regression below chains it.
_HOT_LOOP = """
.export main
main:
    movi r1, 0
    movi r3, 40
loop:
    add r1, r1, 1
    bltu r1, r3, cont
cont:
    add r2, r2, 1
    bltu r1, r3, loop
    halt
"""

# Same loop, but the final iteration stores a word over the back-edge
# branch -- self-modifying code landing inside the formed chain.
_SELF_PATCH = """
.export main
main:
    movi r1, 0
    movi r3, 30
loop:
    add r1, r1, 1
    movi r7, patchsite
    movi r8, 0x0000003F
    bltu r1, r3, cont
    st32 [r7+0], r8
cont:
    add r2, r2, 1
patchsite:
    bltu r1, r3, loop
    halt
"""

# The loop divides by a counter that reaches zero on the last trip: the
# fault is raised from the middle of a hot, already-chained trace.
_FAULTING_LOOP = """
.export main
main:
    movi r1, 20
loop:
    add r2, r2, 1
    bltu r0, r2, body
body:
    sub r1, r1, 1
    divu r5, r2, r1
    bltu r0, r1, loop
    halt
"""


class TestSuperblockDeopt:
    """Every guarded assumption a superblock makes must deopt back to
    per-block semantics bit-for-bit: self-patching stores, mid-chain
    faults, step-limit boundaries, and ``code_changed()``.  Each test
    compares ``"blocks"`` against ``"compiled"`` with chains forming at a
    head's first dispatch."""

    @staticmethod
    def _run(source, exec_backend, max_steps=10_000):
        from repro.errors import VmFault

        machine = load(source)
        cpu = machine.cpu
        cpu.exec_backend = exec_backend
        cpu.pc = TEXT_BASE
        reason = fault = None
        try:
            reason = cpu.run(max_steps=max_steps)
        except VmFault as exc:
            fault = type(exc).__name__
        return (str(reason), fault, list(cpu.regs), cpu.pc, cpu.instret,
                cpu.mem_ops, cpu.io_ops)

    @mock.patch(_HOT_THRESHOLD, 1)
    def test_self_patch_deopts_identically(self):
        baseline = self._run(_SELF_PATCH, "blocks")
        with counting() as work:
            fused = self._run(_SELF_PATCH, "compiled")
        assert fused == baseline
        assert work["superblocks_formed"] > 0
        assert work["superblock_deopts"] > 0, \
            "the store into the chain's own code span must deopt"

    @mock.patch(_HOT_THRESHOLD, 1)
    def test_fault_mid_chain_flushes_counters(self):
        baseline = self._run(_FAULTING_LOOP, "blocks")
        assert baseline[1] == "VmFault"
        with counting() as work:
            fused = self._run(_FAULTING_LOOP, "compiled")
        assert fused == baseline
        assert work["superblock_runs"] > 0, \
            "the fault must have been raised from inside a chain"

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13, 40, 77, 200])
    @mock.patch(_HOT_THRESHOLD, 1)
    def test_step_limit_exits_at_same_boundary(self, limit):
        baseline = self._run(_HOT_LOOP, "blocks", max_steps=limit)
        fused = self._run(_HOT_LOOP, "compiled", max_steps=limit)
        assert fused == baseline

    @mock.patch(_HOT_THRESHOLD, 1)
    def test_interrupted_run_resumes_identically(self):
        """Stop mid-trace (where an interrupt window would open), then
        resume: the two-leg run must land exactly where one uninterrupted
        run does, chained or not."""
        def run_split(exec_backend):
            machine = load(_HOT_LOOP)
            cpu = machine.cpu
            cpu.exec_backend = exec_backend
            cpu.pc = TEXT_BASE
            cpu.run(max_steps=37)     # mid-chain on the fused path
            cpu.run(max_steps=10_000)
            return (list(cpu.regs), cpu.pc, cpu.instret)

        whole = self._run(_HOT_LOOP, "compiled")
        split = run_split("compiled")
        assert run_split("blocks") == split
        assert split[0] == whole[2] and split[1] == whole[3] \
            and split[2] == whole[4]

    @mock.patch(_HOT_THRESHOLD, 1)
    def test_code_changed_drops_chains(self):
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        machine = load(_HOT_LOOP)
        cpu = machine.cpu
        cpu.exec_backend = "compiled"
        cpu.pc = TEXT_BASE
        cpu.run()
        manager = cpu._sb_manager
        assert manager is not None and manager._supers, \
            "the hot loop should have formed a chain"
        # Patch the loop body, signal, and re-run: profile state is gone
        # and the patched code's behavior is observed.
        machine.memory.write_bytes(
            TEXT_BASE + 4 * INSTR_SIZE,
            encode(Instruction(Op.ADD, 2, 2, imm=5)))
        cpu.code_changed()
        assert not manager._supers and not manager._counts
        cpu.regs[1] = cpu.regs[2] = 0
        cpu.pc = TEXT_BASE
        cpu.run()
        expected = self._run(_HOT_LOOP.replace("add r2, r2, 1",
                                               "add r2, r2, 5"),
                             "blocks")
        assert cpu.regs[2] == expected[2][2]

    @mock.patch(_HOT_THRESHOLD, 1)
    def test_stale_chain_revalidation_without_signal(self):
        """A patch landing between dispatches without ``code_changed()``
        is caught by per-run byte revalidation: the chain is dropped, the
        translator retranslates, and execution follows the new bytes."""
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        machine = load(_HOT_LOOP)
        cpu = machine.cpu
        cpu.exec_backend = "compiled"
        cpu.pc = TEXT_BASE
        cpu.run()
        manager = cpu._sb_manager
        assert any(hasattr(sb, "blocks")
                   for sb in manager._supers.values())
        # Patch inside the chain's span; Superblock.validate notices the
        # stale bytes before the next run, and the translator notices
        # them per block.
        machine.memory.write_bytes(
            TEXT_BASE + 4 * INSTR_SIZE,
            encode(Instruction(Op.ADD, 2, 2, imm=3)))
        cpu.regs[1] = cpu.regs[2] = 0
        cpu.pc = TEXT_BASE
        cpu.run()
        expected = self._run(_HOT_LOOP.replace("add r2, r2, 1",
                                               "add r2, r2, 3"),
                             "blocks")
        assert cpu.regs[2] == expected[2][2]
