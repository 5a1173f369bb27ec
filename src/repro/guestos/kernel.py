"""The concrete NDIS kernel shared by the source OS and every target OS.

:class:`NdisKernel` holds what both concrete sides of the reproduction
provide to a driver: the device attach and IRQ latch, the bump heap, the
lists the driver fills (frames handed up, send completions, error log),
the timers, and the default handler of every API in
:data:`~repro.guestos.structures.NDIS_API`.  :meth:`NdisKernel.call` is
the one OS-API dispatcher of a side.  :class:`~repro.guestos.ndis.NdisEnv`
(the source OS) and :class:`~repro.targetos.base.TargetOs` (the targets,
paper section 4.2) build on it and override only where they differ.
"""

from dataclasses import dataclass

from repro.guestos.structures import NdisStatus, bind_api
from repro.layout import HEAP_BASE, HEAP_LIMIT

#: ``NdisStatus.SUCCESS`` as a plain int: the handlers run on every
#: frame, where an enum member's class lookup costs as much as the call
SUCCESS = int(NdisStatus.SUCCESS)


@dataclass
class Timer:
    """A timer the driver set up with ``NdisInitializeTimer``."""

    handler: int
    due: bool = False


class NdisKernel:
    """Concrete kernel services; API handlers take an argument reader
    (``reader(i)`` is stack argument ``i``)."""

    #: raised on heap exhaustion and on an API this kernel does not answer
    kernel_error = RuntimeError
    #: names this kernel in its errors
    os_name = "ndis"

    def __init__(self, machine, device=None):
        self.machine = machine
        self.device = device
        self.irq_pending = False
        #: total device interrupts raised (validation-matrix observable)
        self.irq_count = 0
        self._heap_next = HEAP_BASE
        #: frames the driver handed up to the OS
        self.received_frames = []
        self.send_completions = []
        self.error_log = []
        self.timers = {}                # timer struct address -> Timer
        #: OS API calls made by the driver
        self.api_call_count = 0
        #: the API table, built once; its handlers late-bind ``self``
        self.api_table = self.adaptation_table()
        if device is not None:
            self._attach(device)

    def adaptation_table(self):
        """``{name: (handler, nargs)}`` of every API this kernel answers;
        a target OS overrides entries whose semantics differ."""
        return bind_api(self)

    def call(self, name, arg_reader):
        """Answer one OS API call: ``(return value, stack args)`` (the
        ``os_interface`` protocol of a synthesized driver).  An API
        missing from the table raises, surfacing incomplete templates."""
        entry = self.api_table.get(name)
        if entry is None:
            raise self.kernel_error("%s has no adaptation for OS API %r"
                                    % (self.os_name, name))
        handler, nargs = entry
        self.api_call_count += 1
        result = handler(arg_reader)
        return (0 if result is None else result, nargs)

    # ------------------------------------------------------------------
    # Device, heap, upward delivery

    def _attach(self, device):
        bus = self.machine.bus
        pci = device.PCI
        if pci.io_size:
            bus.attach_ports(pci.io_base, pci.io_size, device)
        if pci.mmio_size:
            bus.attach_mmio(pci.mmio_base, pci.mmio_size, device)
        device.irq_callback = self._device_irq
        if getattr(device, "bus", None) is None:
            device.bus = bus

    def _device_irq(self):
        self.irq_pending = True
        self.irq_count += 1

    def alloc(self, size, align=16):
        """Bump-allocate from the kernel heap."""
        base = (self._heap_next + align - 1) & ~(align - 1)
        if base + size > HEAP_LIMIT:
            raise self.kernel_error("kernel heap exhausted")
        self._heap_next = base + size
        return base

    def deliver_frame_up(self, buffer, length):
        """The driver indicated a received frame to the OS."""
        frame = self.machine.memory.read_bytes(buffer, length)
        self.received_frames.append(frame)

    def _pci(self):
        if self.device is None:
            raise self.kernel_error("no device attached")
        return self.device.PCI

    # ------------------------------------------------------------------
    # The default handler of every API (NDIS_API names the service)

    def _succeed(self, a):
        return SUCCESS

    _register_miniport = _set_attributes = _succeed

    def _allocate_memory(self, a):
        return self.alloc(a(0))

    def _allocate_shared_memory(self, a):
        size, physical_out = a(0), a(1)
        virtual = self.alloc(size, align=64)
        # identity-mapped guest: the physical address is the virtual one
        self.machine.memory.write(physical_out, 4, virtual)
        return virtual

    def _io_port_base(self, a):
        return self._pci().io_base

    def _mmio_base(self, a):
        return self._pci().mmio_base

    def _initialize_timer(self, a):
        self.timers[a(0)] = Timer(a(1))
        return SUCCESS

    def _set_timer(self, a):
        timer = self.timers.get(a(0))
        if timer is not None:
            timer.due = True
        return SUCCESS

    def _cancel_timer(self, a):
        timer = self.timers.get(a(0))
        if timer is not None:
            timer.due = False
        return SUCCESS

    def _log_error(self, a):
        self.error_log.append(a(0))
        return SUCCESS

    def _indicate_receive(self, a):
        self.deliver_frame_up(a(0), a(1))
        return SUCCESS

    def _send_complete(self, a):
        self.send_completions.append(a(0))
        return SUCCESS

    def _read_configuration(self, a):
        return 0                        # no registry: every key reads 0

    def _physical_address(self, a):
        return a(0)                     # identity-mapped guest
