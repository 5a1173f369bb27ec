"""The unified compiled-execution tiers.

Three layers ride :mod:`repro.ir.compile`: the concrete CPU's DBT mode
and the synthesized-driver runtime, both through the one tier setting
``exec_backend`` (:func:`repro.ir.backend.resolve_tier`), and the
symbolic executor's concrete fast path.  These tests pin the cross-tier
equivalences: identical semantics, identical counters, identical traces.
"""

import json

import pytest

from repro.asm import assemble
from repro.dbt import Translator
from repro.drivers import build_driver, device_class
from repro.errors import VmFault
from repro.eval.runner import get_cache
from repro.guestos.harness import DriverHarness
from repro.ir import (
    TIERS,
    IrEnv,
    TranslationBlock,
    compile_block,
    exec_counters,
    resolve_tier,
    run_block,
    superblock_counters,
)
from repro.ir import nodes as N
from repro.isa.registers import REG_SP
from repro.layout import (
    HEAP_BASE,
    MMIO_BASE,
    STACK_TOP,
    TEXT_BASE,
    page_align,
)
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate import CATALOG, OriginalDut, SynthesizedDut, run_scenario
from repro.vm import Machine
from repro.vm.memory import NEVER_HIT

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"


def load(source):
    """Assemble + map at TEXT_BASE with relocations applied."""
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


EXERCISE_ALL_OPS = """
.export main
main:
    movi r1, 0x80000001
    movi r2, 13
    add r3, r1, r2
    sub r4, r1, r2
    and r5, r1, r2
    or r6, r1, r2
    xor r7, r1, r2
    shl r8, r1, 3
    shr r9, r1, 1
    sar r10, r1, 1
    mul r11, r1, r2
    divu r12, r1, r2
    remu r0, r1, r2
    not r3, r3
    neg r4, r4
    movi r8, 0x%x
    st32 [r8+0], r1
    ld16 r9, [r8+2]
    ld8 r10, [r8+0]
    push r1
    pop r11
    beq r1, r2, main
    halt
""" % HEAP_BASE


def run_ir(machine, backend_name):
    env = IrEnv.for_machine(machine)
    env.regs[REG_SP] = STACK_TOP
    run, _superblocks = resolve_tier(backend_name)
    translator = Translator(
        lambda addr, size: machine.memory.read_bytes(addr, size))
    pc = TEXT_BASE
    for _ in range(10_000):
        result = run(translator.get(pc), env)
        if result.kind == "halt":
            return env
        pc = result.target
    pytest.fail("program did not halt")


class TestCompiledBlockSemantics:
    def test_compiled_matches_interp_and_counters(self):
        """Every op kind: identical registers, memory, and env counters."""
        interp_machine = load(EXERCISE_ALL_OPS)
        interp_env = run_ir(interp_machine, "interp")
        compiled_machine = load(EXERCISE_ALL_OPS)
        compiled_env = run_ir(compiled_machine, "compiled")
        assert compiled_env.regs == interp_env.regs
        assert compiled_env.instrs_retired == interp_env.instrs_retired
        assert compiled_env.ops_retired == interp_env.ops_retired
        assert compiled_env.io_ops == interp_env.io_ops
        assert compiled_machine.memory.read_bytes(HEAP_BASE, 8) == \
            interp_machine.memory.read_bytes(HEAP_BASE, 8)

    def test_compiled_function_is_cached_on_block(self):
        machine = load(".export main\nmain:\n halt")
        translator = Translator(
            lambda addr, size: machine.memory.read_bytes(addr, size))
        block = translator.get(TEXT_BASE)
        assert compile_block(block) is compile_block(block)

    def test_shared_program_cache_across_translators(self):
        """Identical code in two translators shares one translated block
        and with it one compiled function, so repeated harness
        construction neither retranslates nor recompiles the corpus."""
        machine = load(".export main\nmain:\n movi r1, 7\n halt")
        read = lambda addr, size: machine.memory.read_bytes(addr, size)
        block_a = Translator(read).get(TEXT_BASE)
        block_b = Translator(read).get(TEXT_BASE)
        assert block_a is block_b
        assert compile_block(block_a) is compile_block(block_b)

    def test_divide_by_zero_faults_like_interp(self):
        source = """
        .export main
        main:
            movi r1, 5
            movi r2, 0
            divu r3, r1, r2
            halt
        """
        with pytest.raises(VmFault):
            run_ir(load(source), "interp")
        with pytest.raises(VmFault):
            run_ir(load(source), "compiled")
        # ops_retired counts up to and including the faulting op in both.
        envs = []
        for name in ("interp", "compiled"):
            machine = load(source)
            env = IrEnv.for_machine(machine)
            env.regs[REG_SP] = STACK_TOP
            translator = Translator(
                lambda a, s, m=machine: m.memory.read_bytes(a, s))
            block = translator.get(TEXT_BASE)
            with pytest.raises(VmFault):
                resolve_tier(name)[0](block, env)
            envs.append(env)
        assert envs[0].ops_retired == envs[1].ops_retired
        assert envs[0].regs == envs[1].regs

    def test_exec_counters_advance(self):
        before = exec_counters()
        machine = load(".export main\nmain:\n movi r9, 1\n halt")
        run_ir(machine, "compiled")
        after = exec_counters()
        assert after["block_runs"] > before["block_runs"]

    def test_resolve_tier(self):
        assert TIERS == ("step", "interp", "blocks", "compiled")
        assert resolve_tier("step") == (run_block, False)
        assert resolve_tier("interp") == (run_block, False)
        compiled, superblocks = resolve_tier("compiled")
        assert superblocks and compiled is not run_block
        assert resolve_tier("blocks") == (compiled, False)
        for bad in ("llvm", None, True, ["compiled"]):
            with pytest.raises(ValueError):
                resolve_tier(bad)


class TestTierSetting:
    """One ``exec_backend`` name, checked when the object is built."""

    @pytest.mark.parametrize("build", [
        lambda tier: Machine(exec_backend=tier),
        lambda tier: OriginalDut("rtl8029", exec_backend=tier),
        lambda tier: SynthesizedDut(get_cache().run("rtl8029"), "winsim",
                                    exec_backend=tier),
    ], ids=["Machine", "OriginalDut", "SynthesizedDut"])
    @pytest.mark.parametrize("tier", ["bogus", "off", None, False])
    def test_unknown_tier_raises_at_construction(self, build, tier):
        with pytest.raises(ValueError, match="unknown execution tier"):
            build(tier)

    def test_synthesized_step_runs_the_tree_walker(self):
        """The synthesized side has no per-instruction tier: ``"step"``
        tree-walks -- no compiled block and no superblock runs -- and
        observes what ``"compiled"`` observes."""
        artifact = get_cache().run("rtl8029")
        scenario = CATALOG["udp_stream"]
        compiled = run_scenario(SynthesizedDut(artifact, "winsim"), scenario)
        before = exec_counters()["block_runs"], \
            superblock_counters()["superblock_runs"]
        stepped = run_scenario(
            SynthesizedDut(artifact, "winsim", exec_backend="step"), scenario)
        assert (exec_counters()["block_runs"],
                superblock_counters()["superblock_runs"]) == before
        assert stepped.to_dict() == compiled.to_dict()


class TestCpuDbtMode:
    """The CPU's DBT mode is observation-identical to per-step decode."""

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_harness_run_matches_step_interpreter(self, backend):
        """Full driver lifecycle on the original binary: same statuses,
        same frames, and the same instret/io_ops/mem_ops accounting."""
        outputs = []
        for tier in ("step", backend):
            harness = DriverHarness(build_driver("rtl8029"),
                                    device_class("rtl8029"), mac=MAC,
                                    exec_backend=tier)
            harness.boot()
            workload = UdpWorkload(MAC, PEER, 128)
            statuses = [harness.send(workload.next_frame().to_bytes())
                        for _ in range(4)]
            delivered = harness.inject_rx(
                UdpWorkload(PEER, MAC, 64).next_frame().to_bytes())
            mac = harness.query_mac()
            statuses.append(harness.halt())
            cpu = harness.machine.cpu
            outputs.append({
                "statuses": statuses,
                "delivered": [f.hex() for f in delivered],
                "mac": mac.hex(),
                "wire": [f.hex() for f in harness.medium.transmitted],
                "instret": cpu.instret,
                "io_ops": cpu.io_ops,
                "mem_ops": cpu.mem_ops,
                "irqs": harness.env.irq_count,
                "api_calls": [(r.name, r.args, r.caller_pc)
                              for r in harness.env.api_calls],
            })
        assert outputs[0] == outputs[1]

    def test_dbt_mode_is_default_for_harness(self):
        harness = DriverHarness(build_driver("rtl8029"),
                                device_class("rtl8029"), mac=MAC)
        assert harness.machine.cpu.exec_backend == "compiled"


class TestSynthesizedRuntimeBackends:
    def test_template_counters_identical_across_backends(self):
        """The synthesized driver produces identical behaviour and perf
        counters through the compiled tier and the tree-walker."""
        artifact = get_cache().run("rtl8029")
        outputs = []
        for backend in ("interp", "compiled"):
            target = TARGET_OSES["winsim"](device_class("rtl8029"), mac=MAC)
            template = DmaNicTemplate(artifact.synthesized, target,
                                      original_image=artifact.image,
                                      exec_backend=backend)
            template.initialize()
            workload = UdpWorkload(MAC, PEER, 96)
            statuses = [template.send(workload.next_frame().to_bytes())
                        for _ in range(3)]
            env = template.runtime.env
            outputs.append({
                "statuses": statuses,
                "wire": [f.hex() for f in target.medium.transmitted],
                "instrs": env.instrs_retired,
                "ops": env.ops_retired,
                "io_ops": env.io_ops,
                "irqs": target.irq_count,
            })
        assert outputs[0] == outputs[1]


class TestSymexConcreteFastPath:
    def test_fast_path_used_by_pipeline(self):
        """Real reverse-engineering runs execute a meaningful share of
        blocks on the compiled concrete tier."""
        stats = get_cache().run("rtl8029").stats
        assert stats["exec_fast_blocks"] > 0
        assert stats["exec_fast_blocks"] < stats["blocks_executed"]

    def test_fast_path_preserves_run_identity(self):
        """A whole engine run with the fast path off is byte-identical
        (minus wall-clock) to one with it on: same trace, same coverage,
        same constraints-derived counters."""
        from repro.pipeline.artifact import build_artifact, canonical_json
        from repro.revnic import RevNic, RevNicConfig
        from repro.synth import synthesize

        def run(fast):
            image = build_driver("pcnet")
            config = RevNicConfig(driver_name="pcnet",
                                  pci=device_class("pcnet").PCI)
            engine = RevNic(image, config)
            engine.executor.concrete_fast_path = fast
            result = engine.run()
            if fast:
                assert engine.executor.fast_blocks > 0
            else:
                assert engine.executor.fast_blocks == 0
            artifact = build_artifact(config, result, synthesize(result))
            data = json.loads(canonical_json(artifact))
            data["stats"]["phases"] = None
            data["stats"]["exec_fast_blocks"] = None
            return json.dumps(data, sort_keys=True)

        assert run(True) == run(False)


def _ram_block(accesses, pc=0x1000):
    """One block performing ``accesses`` in order -- ``("ld", address,
    width)`` loads into r1.. and ``("st", address, width, value)``
    stores -- then halting."""
    ops = []
    temp = 0
    for index, access in enumerate(accesses):
        ops.append(N.IrConst(dst=temp, value=access[1]))
        if access[0] == "ld":
            ops.append(N.IrLoad(dst=temp + 1, addr=temp, width=access[2]))
            ops.append(N.IrSetReg(reg=1 + index % 12, src=temp + 1))
        else:
            ops.append(N.IrConst(dst=temp + 1, value=access[3]))
            ops.append(N.IrStore(addr=temp, src=temp + 1, width=access[2]))
        temp += 2
    ops.append(N.IrHalt())
    return TranslationBlock(pc=pc, size=8, instr_addrs=[pc], ops=ops)


class _MmioProbe:
    """A device claiming an MMIO range; records every register access."""

    def __init__(self):
        self.log = []

    def mmio_read(self, offset, width):
        self.log.append(("r", offset, width))
        return 0x5A5A5A5A & ((1 << (8 * width)) - 1)

    def mmio_write(self, offset, width, value):
        self.log.append(("w", offset, width, value))


class TestInlineRam:
    """Compiled blocks access guest RAM inline on a hit in the memory's
    last-hit region; every other access takes the environment's
    callables.  Both paths must be indistinguishable from the ``interp``
    backend, which always calls."""

    @staticmethod
    def _run(accesses, backend, setup=None):
        machine = Machine()
        machine.memory.map_region(0x10000, 0x1000, "low")
        machine.memory.map_region(0x11000, 0x1000, "high")
        machine.memory.write_bytes(HEAP_BASE, b"\xAA" * 16)
        probe = _MmioProbe()
        machine.bus.attach_mmio(MMIO_BASE, 0x100, probe)
        seen = []
        machine.bus.observer = lambda *event: seen.append(event)
        if setup is not None:
            setup(machine)
        env = IrEnv.for_machine(machine)
        assert env.ram is machine.memory
        fault = None
        try:
            resolve_tier(backend)[0](_ram_block(accesses), env)
        except VmFault as exc:
            fault = (type(exc).__name__, str(exc))
        memory = machine.memory
        return {
            "fault": fault,
            "regs": list(env.regs),
            "counters": (env.ops_retired, env.io_ops, env.mem_ops),
            "ram": [memory.read_bytes(HEAP_BASE, 16),
                    memory.read_bytes(0x10FF0, 0x10),
                    memory.read_bytes(0x11000, 0x10)],
            "device": probe.log,
            "observed": seen,
            "epoch": memory.write_epoch,
        }

    def _agree(self, accesses, setup=None):
        interp = self._run(accesses, "interp", setup)
        assert self._run(accesses, "compiled", setup) == interp
        return interp

    def test_straddling_adjacent_regions_faults_at_same_op(self):
        for kind in (("ld", 0x10FFE, 4), ("st", 0x10FFE, 4, 7),
                     ("ld", 0x10FFF, 2)):
            # The first access makes "low" the last-hit region.
            result = self._agree([("ld", 0x10FF0, 4), kind,
                                  ("st", HEAP_BASE, 4, 1)])
            assert result["fault"][0] == "MemoryFault"
            assert result["counters"][1:] == (0, 1)

    def test_unmapped_address_faults(self):
        for kind in (("ld", 0x50000, 4), ("st", 0x50000, 1, 3)):
            result = self._agree([("st", HEAP_BASE, 1, 9), kind])
            assert result["fault"][0] == "MemoryFault"

    def test_mmio_window_routes_to_device(self):
        result = self._agree([("ld", HEAP_BASE, 4),
                              ("ld", MMIO_BASE + 4, 2),
                              ("st", MMIO_BASE + 8, 4, 0xCAFEF00D),
                              ("st", HEAP_BASE, 2, 0x1234)])
        assert result["fault"] is None
        assert result["counters"][1:] == (2, 2)
        assert result["device"] == [("r", 4, 2), ("w", 8, 4, 0xCAFEF00D)]
        assert len(result["observed"]) == 2

    def test_accesses_alternating_between_regions(self):
        accesses = []
        for step in range(6):
            accesses.append(("st", HEAP_BASE + step, 1, step + 1))
            accesses.append(("st", 0x10FF0 + 2 * step, 2, 0x100 + step))
            accesses.append(("ld", 0x11000 + step, 1))
            accesses.append(("ld", HEAP_BASE, 4))
        result = self._agree(accesses)
        assert result["counters"][1:] == (0, len(accesses))

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_store_masks_to_width(self, width):
        result = self._agree([("st", HEAP_BASE + 4, width, 0xFEDCBA98),
                              ("ld", HEAP_BASE + 4, 4)])
        expected = (0xFEDCBA98).to_bytes(4, "little")[:width]
        assert result["ram"][0][4:4 + width] == expected
        assert result["ram"][0][4 + width:8] == b"\xAA" * (4 - width)

    def test_store_into_watched_span_bumps_epoch_once(self):
        def watch(machine):
            machine.memory.watch_code_span(HEAP_BASE + 8, HEAP_BASE + 12)

        outside = self._agree([("st", HEAP_BASE, 4, 1),
                               ("st", HEAP_BASE + 12, 4, 2)], watch)
        assert outside["epoch"] == 0
        # A store overlapping the span's first byte from below counts.
        inside = self._agree([("st", HEAP_BASE, 4, 1),
                              ("st", HEAP_BASE + 6, 4, 2),
                              ("st", HEAP_BASE + 12, 4, 3)], watch)
        assert inside["epoch"] == 1

    def test_bare_env_uses_its_callables(self):
        calls = []

        def mem_read(address, width):
            calls.append(("r", address, width))
            return 0x11

        def mem_write(address, width, value):
            calls.append(("w", address, width, value))

        env = IrEnv([0] * 16, mem_read, mem_write, None, None)
        assert env.ram is NEVER_HIT
        block = _ram_block([("st", HEAP_BASE, 2, 0x55), ("ld", HEAP_BASE, 1)])
        compile_block(block)(env)
        assert calls == [("w", HEAP_BASE, 2, 0x55), ("r", HEAP_BASE, 1)]
        assert env.regs[2] == 0x11 and env.mem_ops == 2

    def test_symex_fast_env_uses_its_callables(self):
        from repro.symex.executor import _FastEnv

        class _State:
            regs = [0] * 16

            class memory:
                @staticmethod
                def read_byte(address):
                    return address & 0xFF

        env = _FastEnv(_State(), lambda address: False)
        assert env.ram is NEVER_HIT
        block = _ram_block([("st", HEAP_BASE, 4, 0x01020304),
                            ("ld", HEAP_BASE + 1, 2),
                            ("ld", HEAP_BASE + 8, 1)])
        compile_block(block)(env)
        assert [(a.address, a.is_write) for a in env.accesses] == [
            (HEAP_BASE, True), (HEAP_BASE + 1, False),
            (HEAP_BASE + 8, False)]
        assert env.regs[2] == 0x0203 and env.regs[3] == 0x08

    def test_regions_never_overlap_the_mmio_window(self):
        memory = Machine().memory
        with pytest.raises(ValueError):
            memory.map_region(MMIO_BASE - 0x1000, 0x2000, "bad")
