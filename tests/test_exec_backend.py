"""The unified compiled-execution backend.

Three layers ride :mod:`repro.ir.compile` through the shared
:class:`~repro.ir.backend.ExecutionBackend`: the concrete CPU's DBT mode,
the synthesized-driver runtime, and the symbolic executor's concrete fast
path.  These tests pin the cross-tier equivalences: identical semantics,
identical counters, identical traces.
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
    BACKENDS,
    IrEnv,
    compile_block,
    exec_counters,
    get_backend,
    run_block,
)
from repro.isa.registers import REG_SP
from repro.layout import HEAP_BASE, STACK_TOP, TEXT_BASE, page_align
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.vm import Machine

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
    backend = get_backend(backend_name)
    translator = Translator(
        lambda addr, size: machine.memory.read_bytes(addr, size))
    pc = TEXT_BASE
    for _ in range(10_000):
        result = backend.run(translator.get(pc), env)
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
        """Identical code in two translators shares one compiled
        function (content-addressed), so repeated harness construction
        does not recompile the corpus."""
        machine = load(".export main\nmain:\n movi r1, 7\n halt")
        read = lambda addr, size: machine.memory.read_bytes(addr, size)
        block_a = Translator(read).get(TEXT_BASE)
        block_b = Translator(read).get(TEXT_BASE)
        assert block_a is not block_b
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
                get_backend(name).run(block, env)
            envs.append(env)
        assert envs[0].ops_retired == envs[1].ops_retired
        assert envs[0].regs == envs[1].regs

    def test_exec_counters_advance(self):
        before = exec_counters()
        machine = load(".export main\nmain:\n movi r9, 1\n halt")
        run_ir(machine, "compiled")
        after = exec_counters()
        assert after["block_runs"] > before["block_runs"]

    def test_get_backend_resolution(self):
        assert get_backend(None).name == "compiled"
        assert get_backend("interp").name == "interp"
        assert get_backend(BACKENDS["compiled"]) is BACKENDS["compiled"]
        with pytest.raises(ValueError):
            get_backend("llvm")


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
        from repro.pipeline.artifact import artifact_to_dict, build_artifact
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
            data = artifact_to_dict(artifact)
            data["stats"]["wall_seconds"] = 0.0
            data["stats"]["phases"] = None
            data["stats"]["exec_fast_blocks"] = None
            data["coverage"]["timeline"] = [
                [blocks, 0.0, fraction]
                for blocks, _seconds, fraction in
                data["coverage"]["timeline"]]
            return json.dumps(data, sort_keys=True, default=str)

        assert run(True) == run(False)
