"""Shared target-OS machinery.

A :class:`TargetOs` owns a machine + device model and exposes the kernel
services a NIC driver consumes.  The *API adaptation table* is the Python
analog of the developer's template-integration work: the synthesized
driver's OS calls (source-OS names) are translated to the target OS's own
services (paper section 4.2: "The developer also needs to match OS-specific
API calls to those of the target OS").
"""

from dataclasses import dataclass

from repro.errors import TemplateError
from repro.layout import HEAP_BASE, HEAP_LIMIT
from repro.net.medium import Medium
from repro.vm.machine import Machine


@dataclass(frozen=True)
class OsTraits:
    """Per-OS characteristics consumed by the performance model.

    ``stack_cost`` is the fixed per-packet CPU cost (in model instruction
    units) of the OS network stack above the driver and ``stack_per_byte``
    its copy cost; ``irq_cost`` the per-interrupt kernel entry/dispatch
    cost; ``syscall_cost`` the per-OS-API-call cost inside the driver path.
    KitOS has no stack ("the benchmark transmits hand-crafted raw UDP
    packets, since KitOS has no TCP/IP stack").
    """

    name: str
    stack_cost: int
    irq_cost: int
    syscall_cost: int
    stack_per_byte: float = 0.0
    has_network_stack: bool = True


class TargetOs:
    """Base target OS: machine, device, kernel services, adaptation table."""

    TRAITS = OsTraits(name="base", stack_cost=0, irq_cost=0, syscall_cost=0)

    def __init__(self, device_cls, mac=b"\x52\x54\x00\x12\x34\x56"):
        self.machine = Machine()
        self.medium = Medium()
        self.device = device_cls(mac, medium=self.medium,
                                 bus=self.machine.bus)
        self.medium.attach(self.device)
        pci = self.device.PCI
        if pci.io_size:
            self.machine.bus.attach_ports(pci.io_base, pci.io_size,
                                          self.device)
        if pci.mmio_size:
            self.machine.bus.attach_mmio(pci.mmio_base, pci.mmio_size,
                                         self.device)
        self.device.irq_callback = self._device_irq
        self.irq_pending = False
        #: total device interrupts raised (validation-matrix observable)
        self.irq_count = 0
        self._heap_next = HEAP_BASE
        #: frames the driver handed up to this OS's network layer
        self.received_frames = []
        self.send_completions = []
        self.error_log = []
        self.timers = {}
        #: counts of OS API calls made by the (synthesized) driver
        self.api_call_count = 0
        #: the adaptation table, built once; its handlers late-bind ``self``
        self._adaptations = self.adaptation_table()

    # ------------------------------------------------------------------
    # Kernel services

    def _device_irq(self):
        self.irq_pending = True
        self.irq_count += 1

    def alloc(self, size, align=16):
        base = (self._heap_next + align - 1) & ~(align - 1)
        if base + size > HEAP_LIMIT:
            raise TemplateError("target-OS heap exhausted")
        self._heap_next = base + size
        return base

    def deliver_frame_up(self, buffer, length):
        """The driver indicated a received frame to the OS."""
        frame = self.machine.memory.read_bytes(buffer, length)
        self.received_frames.append(frame)

    # ------------------------------------------------------------------
    # API adaptation: source-OS API name -> (handler, nargs)

    def adaptation_table(self):
        """Map each source-OS API the synthesized code may call to this
        OS's own service.  Subclasses override entries whose semantics
        differ; unknown calls raise, surfacing incomplete templates."""
        return {
            "NdisMRegisterMiniport": (self._nop_status, 1),
            "NdisMSetAttributes": (self._nop_status, 1),
            "NdisAllocateMemory": (lambda a: self.alloc(a(0)), 1),
            "NdisFreeMemory": (self._nop_status, 2),
            "NdisMAllocateSharedMemory": (self._alloc_shared, 2),
            "NdisMFreeSharedMemory": (self._nop_status, 2),
            "NdisMRegisterIoPortRange":
                (lambda a: self.device.PCI.io_base, 1),
            "NdisMMapIoSpace": (lambda a: self.device.PCI.mmio_base, 2),
            "NdisMRegisterInterrupt": (self._nop_status, 1),
            "NdisInitializeTimer": (self._init_timer, 2),
            "NdisSetTimer": (self._set_timer, 2),
            "NdisMCancelTimer": (self._cancel_timer, 1),
            "NdisWriteErrorLogEntry":
                (lambda a: self.error_log.append(a(0)) or 0, 1),
            "NdisStallExecution": (self._nop_status, 1),
            "NdisMIndicateReceivePacket": (self._indicate, 2),
            "NdisMSendComplete":
                (lambda a: self.send_completions.append(a(0)) or 0, 1),
            "NdisReadConfiguration": (lambda a: 0, 1),
            "NdisGetPhysicalAddress": (lambda a: a(0), 1),
        }

    def _nop_status(self, arg_reader):
        return 0

    def _alloc_shared(self, arg_reader):
        size, physical_out = arg_reader(0), arg_reader(1)
        virtual = self.alloc(size, align=64)
        self.machine.memory.write(physical_out, 4, virtual)
        return virtual

    def _indicate(self, arg_reader):
        self.deliver_frame_up(arg_reader(0), arg_reader(1))
        return 0

    def _init_timer(self, arg_reader):
        self.timers[arg_reader(0)] = {"handler": arg_reader(1), "due": False}
        return 0

    def _set_timer(self, arg_reader):
        timer = self.timers.get(arg_reader(0))
        if timer is not None:
            timer["due"] = True
        return 0

    def _cancel_timer(self, arg_reader):
        timer = self.timers.get(arg_reader(0))
        if timer is not None:
            timer["due"] = False
        return 0

    # ------------------------------------------------------------------

    def call(self, name, arg_reader):
        """The os_interface protocol used by SynthesizedDriver."""
        entry = self._adaptations.get(name)
        if entry is None:
            raise TemplateError(
                "template for %s has no adaptation for OS API %r"
                % (self.TRAITS.name, name))
        handler, nargs = entry
        self.api_call_count += 1
        result = handler(arg_reader)
        return (0 if result is None else result, nargs)
