"""Unit tests for the target-OS simulators, the NDIS kernel they share
with the source OS, and template machinery."""

import pytest

from repro.drivers import device_class
from repro.errors import GuestOsError, TemplateError
from repro.guestos.ndis import NdisEnv
from repro.guestos.structures import NDIS_API
from repro.layout import HEAP_BASE, HEAP_LIMIT
from repro.net.medium import Medium
from repro.revnic.osbridge import SymOsBridge
from repro.targetos import KitOs, LinSim, TARGET_OSES, UcSim, WinSim
from repro.targetos.base import TargetOs
from repro.vm.machine import Machine


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


def source_kernel(device="rtl8029"):
    """The source OS's kernel over a device, wired as the harness does."""
    return NdisEnv(Machine(), device=device_class(device)(
        b"\x52\x54\x00\x12\x34\x56", medium=Medium()))


#: Every side that answers the driver's OS-API calls, by name.
SIDES = {
    "source": lambda: source_kernel().api_table,
    **{name: (lambda os_cls=os_cls: make(os_cls).api_table)
       for name, os_cls in TARGET_OSES.items()},
    "bridge": lambda: SymOsBridge(solver=None, shell=None).api_table,
}


class TestOneNdisAbi:
    def test_names_are_unique(self):
        names = [name for name, _nargs, _service in NDIS_API]
        assert len(names) == len(set(names)) == 18

    @pytest.mark.parametrize("side", list(SIDES))
    def test_side_answers_the_shared_list(self, side):
        """The source OS, every target OS (LinSim's and UcSim's
        overrides included) and the symbolic bridge answer exactly the
        names of NDIS_API, each with its argument count."""
        table = SIDES[side]()
        assert {name: nargs for name, (_handler, nargs) in table.items()} \
            == {name: nargs for name, nargs, _service in NDIS_API}
        assert all(callable(handler) for handler, _nargs in table.values())


class TestKernelServices:
    """The shared kernel's services on a target OS; the subclass below
    runs every check on the source OS too."""

    kernel_error = TemplateError

    def kernel(self):
        return make(WinSim)

    def test_alloc_is_monotonic_and_aligned(self):
        target = self.kernel()
        first = target.alloc(100, align=64)
        second = target.alloc(10, align=64)
        assert second > first
        assert first % 64 == 0 and second % 64 == 0

    def test_heap_exhaustion(self):
        target = self.kernel()
        first = target.alloc(64)
        with pytest.raises(self.kernel_error, match="heap exhausted"):
            target.alloc(HEAP_LIMIT - HEAP_BASE)
        # the failed allocation took nothing from the heap
        assert target.alloc(16) == first + 64

    def test_shared_alloc_writes_physical(self):
        target = self.kernel()
        out_ptr = target.alloc(4)
        args = {0: 256, 1: out_ptr}
        virt, nargs = target.call("NdisMAllocateSharedMemory",
                                  lambda i: args[i])
        assert nargs == 2
        assert target.machine.memory.read(out_ptr, 4) == virt

    def test_timer_lifecycle(self):
        target = self.kernel()
        args = {0: 0x1000, 1: 0x00400500}
        target.call("NdisInitializeTimer", lambda i: args[i])
        assert target.timers[0x1000].handler == 0x00400500
        assert not target.timers[0x1000].due
        set_args = {0: 0x1000, 1: 50}
        target.call("NdisSetTimer", lambda i: set_args[i])
        assert target.timers[0x1000].due
        target.call("NdisMCancelTimer", lambda i: 0x1000)
        assert not target.timers[0x1000].due

    def test_irq_latching(self):
        target = self.kernel()
        assert not target.irq_pending
        target.device.irq_callback()
        assert target.irq_pending

    def test_api_call_counter(self):
        target = self.kernel()
        target.call("NdisStallExecution", lambda i: 10)
        target.call("NdisStallExecution", lambda i: 10)
        assert target.api_call_count == 2


class TestSourceKernelServices(TestKernelServices):
    kernel_error = GuestOsError

    def kernel(self):
        return source_kernel()

    def test_timer_is_an_entry_point(self):
        """The source OS also records the first timer's handler as the
        ``timer`` entry point RevNIC exercises."""
        env = self.kernel()
        args = {0: 0x1000, 1: 0x00400500}
        env.call("NdisInitializeTimer", lambda i: args[i])
        assert env.entry_points == {"timer": 0x00400500}


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
