"""The superblock tier: formation, codegen, and consumer equivalence.

Formation is tested against hand-built translation blocks (what chains
may and may not fuse); the consumer tests drive the real original-binary
harness and the synthesized-driver runtime with superblocks forced hot
and assert the observations are bit-identical to the per-block tier --
the same claim the validation matrix makes across OSes, applied across
execution tiers.
"""

import pytest

from repro.drivers import build_driver, device_class
from repro.eval.runner import get_cache
from repro.guestos.harness import DriverHarness
from repro.ir import (
    SuperblockConfig,
    SuperblockManager,
    TranslationBlock,
    superblock_counters,
    superblock_source,
)
from repro.ir import nodes as N
from repro.isa.encoding import INSTR_SIZE
from repro.net import UdpWorkload
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate
from repro.validate.observe import OriginalDut
from repro.validate.scenarios import CATALOG, run_scenario

MAC = b"\x52\x54\x00\xAA\xBB\xCC"
PEER = b"\x02\x00\x00\x00\x00\x01"

_HOT = SuperblockConfig(hot_threshold=1)


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


class TestFormation:
    def _manager(self, block_map, **config):
        return SuperblockManager(block_map.get, "static",
                                 config=SuperblockConfig(hot_threshold=1,
                                                         **config))

    def test_direct_jump_chain(self):
        block_map = {}
        pcs = _linear(block_map, 0x1000, 3)
        manager = self._manager(block_map)
        sb = manager.lookup(0x1000)
        assert sb is not None
        assert [b.pc for b in sb.blocks] == pcs

    def test_max_members_bounds_chain(self):
        block_map = {}
        pcs = _linear(block_map, 0x1000, 12)
        manager = self._manager(block_map, max_members=4)
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

        manager = SuperblockManager(get_block, "static", config=_HOT)
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
        manager = SuperblockManager(
            block_map.get, "static",
            config=SuperblockConfig(hot_threshold=3))
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
        manager = SuperblockManager(
            block_map.get, "static",
            config=SuperblockConfig(hot_threshold=3))
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


class TestHarnessEquivalence:
    """Original binary, full driver lifecycle: superblocks on vs off."""

    def _lifecycle(self, superblocks):
        harness = DriverHarness(build_driver("rtl8029"),
                                device_class("rtl8029"), mac=MAC,
                                exec_backend="compiled",
                                exec_superblocks=superblocks)
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
        baseline = self._lifecycle(False)
        before = superblock_counters()
        fused = self._lifecycle(_HOT)
        after = superblock_counters()
        assert fused == baseline
        assert after["superblock_runs"] > before["superblock_runs"], \
            "a hot boot+TX+RX lifecycle must actually dispatch chains"

    def test_scenario_observation_identical(self):
        scenario = CATALOG["udp_stream"]
        observations = []
        for superblocks in (False, _HOT):
            dut = OriginalDut("rtl8029", exec_backend="compiled",
                              exec_superblocks=superblocks)
            dut.boot()
            observations.append(run_scenario(dut, scenario).to_dict())
            dut.shutdown()
        assert observations[0] == observations[1]


class TestSynthesizedEquivalence:
    """Synthesized driver in the target-OS template: on vs off."""

    def _lifecycle(self, artifact, superblocks):
        target = TARGET_OSES["winsim"](device_class("rtl8029"), mac=MAC)
        template = DmaNicTemplate(artifact.synthesized, target,
                                  original_image=artifact.image,
                                  exec_backend="compiled",
                                  exec_superblocks=superblocks)
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
        baseline = self._lifecycle(artifact, False)
        before = superblock_counters()
        fused = self._lifecycle(artifact, _HOT)
        after = superblock_counters()
        assert fused == baseline
        assert after["superblock_runs"] > before["superblock_runs"]
