"""Unit tests for the target-OS simulators and template machinery."""

import pytest

from repro.drivers import device_class
from repro.errors import TemplateError
from repro.targetos import KitOs, LinSim, TARGET_OSES, UcSim, WinSim
from repro.targetos.base import TargetOs


def make(os_cls, device="rtl8029"):
    return os_cls(device_class(device))


class TestAdaptationTables:
    @pytest.mark.parametrize("os_cls", list(TARGET_OSES.values()))
    def test_covers_standard_api(self, os_cls):
        table = make(os_cls).adaptation_table()
        for name in ("NdisAllocateMemory", "NdisMIndicateReceivePacket",
                     "NdisMSendComplete", "NdisMRegisterIoPortRange"):
            assert name in table

    def test_unknown_api_raises(self):
        target = make(WinSim)
        with pytest.raises(TemplateError, match="no adaptation"):
            target.call("NdisBogusCall", lambda i: 0)

    @pytest.mark.parametrize("os_cls", list(TARGET_OSES.values()))
    @pytest.mark.parametrize("name", [
        "NdisMRegisterAdapterShutdownHandler",   # real NDIS, not adapted
        "IoConnectInterrupt",                    # wrong-kernel API
        "netif_rx",                              # target-native name
        "",                                      # degenerate
    ])
    def test_unadapted_api_raises_template_error(self, os_cls, name):
        """An incomplete template surfaces as TemplateError naming the
        OS -- never a bare KeyError from the table lookup."""
        target = make(os_cls)
        with pytest.raises(TemplateError, match=target.TRAITS.name):
            target.call(name, lambda i: 0)

    def test_linsim_reroutes_receive_to_netif_rx(self):
        target = make(LinSim)
        target.machine.memory.write_bytes(0x00600000, b"hello!" + b"\0" * 60)
        args = {0: 0x00600000, 1: 6}
        retval, nargs = target.call("NdisMIndicateReceivePacket",
                                    lambda i: args[i])
        assert nargs == 2
        assert target.received_frames == [b"hello!"]

    def test_linsim_printk(self):
        target = make(LinSim)
        target.call("NdisWriteErrorLogEntry", lambda i: 0xE0000042)
        assert target.printk_log == [0xE0000042]

    def test_table_built_once_and_overrides_win_through_call(
            self, monkeypatch):
        """Construction builds the table once; every call after that
        reads it, and linsim's and ucsim's overrides still answer."""
        linsim = make(LinSim)
        ucsim = make(UcSim, device="smc91c111")
        for os_cls in (TargetOs, LinSim, UcSim):
            monkeypatch.setattr(os_cls, "adaptation_table", lambda self:
                                pytest.fail("adaptation table rebuilt"))
        seen = []
        linsim.netif_rx = lambda buffer, length: \
            seen.append(("netif_rx", buffer, length)) or 0
        linsim.pci_alloc_consistent = lambda size, out: \
            seen.append(("pci", size, out)) or 0x1000
        args = {0: 0x40, 1: 0x80}.get
        assert linsim.call("NdisMIndicateReceivePacket", args) == (0, 2)
        assert linsim.call("NdisMAllocateSharedMemory", args) == (0x1000, 2)
        assert linsim.call("NdisWriteErrorLogEntry", args) == (0, 1)
        assert seen == [("netif_rx", 0x40, 0x80), ("pci", 0x40, 0x80)]
        assert linsim.printk_log == [0x40]
        assert linsim.api_call_count == 3
        with pytest.raises(TemplateError, match="no DMA"):
            ucsim.call("NdisMAllocateSharedMemory", args)

    def test_ucsim_has_no_dma_api(self):
        target = make(UcSim, device="smc91c111")
        with pytest.raises(TemplateError, match="no DMA"):
            target.call("NdisMAllocateSharedMemory", lambda i: 64)

    def test_kitos_traits(self):
        assert KitOs.TRAITS.stack_cost == 0
        assert not KitOs.TRAITS.has_network_stack


class TestKernelServices:
    def test_alloc_is_monotonic_and_aligned(self):
        target = make(WinSim)
        first = target.alloc(100, align=64)
        second = target.alloc(10, align=64)
        assert second > first
        assert first % 64 == 0 and second % 64 == 0

    def test_shared_alloc_writes_physical(self):
        target = make(WinSim)
        out_ptr = target.alloc(4)
        args = {0: 256, 1: out_ptr}
        virt, nargs = target.call("NdisMAllocateSharedMemory",
                                  lambda i: args[i])
        assert nargs == 2
        assert target.machine.memory.read(out_ptr, 4) == virt

    def test_timer_lifecycle(self):
        target = make(WinSim)
        args = {0: 0x1000, 1: 0x00400500}
        target.call("NdisInitializeTimer", lambda i: args[i])
        assert not target.timers[0x1000]["due"]
        set_args = {0: 0x1000, 1: 50}
        target.call("NdisSetTimer", lambda i: set_args[i])
        assert target.timers[0x1000]["due"]
        target.call("NdisMCancelTimer", lambda i: 0x1000)
        assert not target.timers[0x1000]["due"]

    def test_irq_latching(self):
        target = make(WinSim)
        assert not target.irq_pending
        target.device.irq_callback()
        assert target.irq_pending

    def test_api_call_counter(self):
        target = make(WinSim)
        target.call("NdisStallExecution", lambda i: 10)
        target.call("NdisStallExecution", lambda i: 10)
        assert target.api_call_count == 2


class TestOsTraitsOrdering:
    def test_stack_costs_reflect_paper(self):
        """NDIS heaviest, Linux lighter, embedded lighter still, KitOS
        zero -- the OS-differences behind the figures."""
        assert WinSim.TRAITS.stack_cost > LinSim.TRAITS.stack_cost \
            > UcSim.TRAITS.stack_cost > KitOs.TRAITS.stack_cost


class TestOsTraitsFeedPerfModel:
    """Each OS's OsTraits must be a consistent perf-model input."""

    @pytest.mark.parametrize("name", sorted(TARGET_OSES))
    def test_traits_identity_and_ranges(self, name):
        traits = TARGET_OSES[name].TRAITS
        assert traits.name == name
        assert traits.stack_cost >= 0
        assert traits.irq_cost > 0
        assert traits.syscall_cost > 0
        assert traits.stack_per_byte >= 0.0
        # no network stack <=> no per-packet stack cost
        assert traits.has_network_stack == (traits.stack_cost > 0)
        assert traits.has_network_stack == (traits.stack_per_byte > 0)

    @pytest.mark.parametrize("name", sorted(TARGET_OSES))
    def test_model_point_is_sane_for_every_os(self, name):
        from repro.eval.perfmodel import DriverCost, PLATFORMS, model_point

        traits = TARGET_OSES[name].TRAITS
        cost = DriverCost(instructions=5000.0, io_accesses=40.0,
                          uses_dma=False)
        point = model_point(1000, cost, traits, PLATFORMS["pc"])
        assert point.throughput_mbps > 0
        assert 0.0 < point.cpu_utilization <= 1.0
        assert 0.0 < point.driver_fraction <= 1.0

    def test_stack_cost_orders_modeled_throughput(self):
        """The same measured driver cost must get slower, not faster, on
        an OS with a heavier network stack -- the figures' OS ordering."""
        from repro.eval.perfmodel import DriverCost, PLATFORMS, model_point

        cost = DriverCost(instructions=5000.0, io_accesses=40.0,
                          uses_dma=False)
        throughput = {
            name: model_point(1000, cost, TARGET_OSES[name].TRAITS,
                              PLATFORMS["qemu"]).throughput_mbps
            for name in TARGET_OSES
        }
        assert throughput["kitos"] > throughput["ucsim"] \
            > throughput["linsim"] > throughput["winsim"]
