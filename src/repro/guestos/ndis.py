"""NDIS-like kernel API environment for the source OS.

Drivers import these functions by name; the loader binds each import to a
thunk address and the VM dispatches thunk calls here.  The environment also
performs the two pieces of OS-side bookkeeping RevNIC depends on:

* **entry-point discovery** -- ``NdisMRegisterMiniport`` and
  ``NdisInitializeTimer`` registrations are recorded, giving RevNIC the list
  of functions to exercise (paper section 3.2);
* **DMA-region tracking** -- ``NdisMAllocateSharedMemory`` return values are
  recorded so the shell device can return symbolic data for reads from DMA
  memory (paper section 3.4).
"""

from dataclasses import dataclass, field

from repro.errors import GuestOsError
from repro.guestos.structures import (
    ADAPTER_CONTEXT_SIZE,
    MINIPORT_FIELDS,
    NdisStatus,
)
from repro.layout import HEAP_BASE, HEAP_LIMIT, RETURN_TO_OS, STACK_TOP
from repro.vm.cpu import ExitReason


@dataclass
class DmaRegion:
    """A shared-memory region registered for DMA."""

    virtual: int
    physical: int
    size: int

    def contains(self, address):
        return self.physical <= address < self.physical + self.size


@dataclass
class TimerRegistration:
    """A timer entry point registered via ``NdisInitializeTimer``."""

    timer_struct: int
    handler: int
    due: bool = False


@dataclass
class ApiCallRecord:
    """One OS API call made by the driver (feeds Figure 9's function
    classification: functions whose traces contain OS calls are the
    "manual" template-integration ones)."""

    name: str
    args: tuple
    caller_pc: int


class NdisEnv:
    """The source-OS kernel services exposed to the driver."""

    def __init__(self, machine, device=None, trace_api_calls=True):
        self.machine = machine
        self.device = device
        self.loaded = None
        self.entry_points = {}          # name -> virtual address
        #: entry-point invocations by role
        self.call_counts = {}
        self.adapter_context = 0
        self.dma_regions = []
        self.timers = {}                # timer_struct addr -> TimerRegistration
        self.indicated_frames = []
        self.send_completions = []
        self.error_log = []
        self.api_calls = []
        self.trace_api_calls = trace_api_calls
        self.registry = {}
        self.irq_pending = False
        #: total device interrupts raised (validation-matrix observable)
        self.irq_count = 0
        self.stall_microseconds = 0
        self._heap_next = HEAP_BASE
        self._dispatch = _build_dispatch()
        machine.cpu.import_handler = self._import_call
        if device is not None:
            self._attach_device(device)

    # ------------------------------------------------------------------
    # Device plumbing

    def _attach_device(self, device):
        pci = device.PCI
        if pci.io_size:
            self.machine.bus.attach_ports(pci.io_base, pci.io_size, device)
        if pci.mmio_size:
            self.machine.bus.attach_mmio(pci.mmio_base, pci.mmio_size, device)
        device.irq_callback = self._device_irq
        if getattr(device, "bus", None) is None:
            device.bus = self.machine.bus

    def _device_irq(self):
        self.irq_pending = True
        self.irq_count += 1

    # ------------------------------------------------------------------
    # Driver loading and invocation

    def load_driver(self, image):
        """Map the driver and run its ``DriverEntry`` (which registers the
        miniport entry points).  Returns the :class:`LoadedImage`."""
        from repro.guestos.loader import load_image

        self.loaded = load_image(self.machine, image)
        status = self.invoke(self.loaded.entry_address, [])
        if status != NdisStatus.SUCCESS:
            raise GuestOsError("DriverEntry failed with 0x%08x" % status)
        if "initialize" not in self.entry_points:
            raise GuestOsError("driver did not register an initialize handler")
        return self.loaded

    def allocate_adapter_context(self):
        """Allocate the driver's persistent state block (paper: "the
        template allocates persistent state ... passed to each reverse
        engineered entry point")."""
        self.adapter_context = self.alloc(ADAPTER_CONTEXT_SIZE)
        return self.adapter_context

    def invoke(self, address, args, max_steps=5_000_000):
        """Call driver code at ``address`` with stack ``args`` and run the
        CPU until it returns to the OS.  Returns ``r0``."""
        cpu = self.machine.cpu
        saved_regs = list(cpu.regs)
        saved_pc = cpu.pc
        if cpu.sp == 0:
            cpu.sp = STACK_TOP
        for value in reversed(args):
            cpu.push(value)
        cpu.push(RETURN_TO_OS)
        cpu.pc = address
        reason = cpu.run(max_steps=max_steps)
        if reason != ExitReason.RETURNED_TO_OS:
            raise GuestOsError("driver did not return cleanly: %s"
                               % reason.value)
        result = cpu.regs[0]
        cpu.regs = saved_regs
        cpu.pc = saved_pc
        return result

    def call_entry(self, name, extra_args=(), max_steps=5_000_000):
        """Invoke a registered entry point with the adapter context plus
        ``extra_args``."""
        self.call_counts[name] = self.call_counts.get(name, 0) + 1
        address = self.entry_points.get(name)
        if address is None:
            raise GuestOsError("entry point %r not registered" % name)
        return self.invoke(address, [self.adapter_context, *extra_args],
                           max_steps=max_steps)

    def service_interrupts(self, max_rounds=8):
        """Deliver pending device interrupts to the driver's ISR.

        Interrupt delivery is deferred to entry-point boundaries -- the same
        injection point the paper's heuristic uses ("triggering interrupts
        after returning from a driver entry point works well", section 3.2).
        """
        rounds = 0
        while self.irq_pending and rounds < max_rounds:
            self.irq_pending = False
            if "isr" in self.entry_points:
                self.call_entry("isr")
            rounds += 1
        return rounds

    def fire_timers(self):
        """Run all due timer handlers."""
        fired = 0
        for registration in list(self.timers.values()):
            if registration.due:
                registration.due = False
                self.invoke(registration.handler, [self.adapter_context])
                fired += 1
        return fired

    # ------------------------------------------------------------------
    # Kernel heap

    def alloc(self, size, align=16):
        """Bump-allocate from the kernel heap."""
        base = (self._heap_next + align - 1) & ~(align - 1)
        if base + size > HEAP_LIMIT:
            raise GuestOsError("kernel heap exhausted")
        self._heap_next = base + size
        return base

    def is_dma_address(self, address):
        """True when ``address`` falls in a registered DMA region."""
        return any(region.contains(address) for region in self.dma_regions)

    # ------------------------------------------------------------------
    # Import dispatch

    def _import_call(self, cpu, slot):
        if self.loaded is None:
            raise GuestOsError("import call before any driver was loaded")
        name = self.loaded.import_names.get(slot)
        if name is None:
            raise GuestOsError("call to unknown import slot %d" % slot)
        entry = self._dispatch.get(name)
        if entry is None:
            raise GuestOsError("unimplemented OS API %r" % name)
        handler, nargs = entry
        args = tuple(cpu.read_stack_arg(i) for i in range(nargs))
        if self.trace_api_calls:
            self.api_calls.append(ApiCallRecord(name, args, cpu.pc))
        result = handler(self, cpu, *args)
        cpu.regs[0] = 0 if result is None else (result & 0xFFFFFFFF)
        return nargs


# --------------------------------------------------------------------------
# API handler implementations.  Each is (handler, number_of_stack_args).

def _register_miniport(env, cpu, characteristics_ptr):
    memory = env.machine.memory
    for name, offset in MINIPORT_FIELDS.items():
        pointer = memory.read(characteristics_ptr + offset, 4)
        if pointer:
            env.entry_points[name] = pointer
    return NdisStatus.SUCCESS


def _set_attributes(env, cpu, context):
    env.adapter_context = context
    return NdisStatus.SUCCESS


def _allocate_memory(env, cpu, size):
    return env.alloc(size)


def _free_memory(env, cpu, pointer, size):
    return NdisStatus.SUCCESS


def _allocate_shared_memory(env, cpu, size, physical_out):
    virtual = env.alloc(size, align=64)
    physical = virtual  # identity-mapped guest
    env.machine.memory.write(physical_out, 4, physical)
    env.dma_regions.append(DmaRegion(virtual, physical, size))
    return virtual


def _free_shared_memory(env, cpu, virtual, size):
    return NdisStatus.SUCCESS


def _register_io_port_range(env, cpu, size):
    if env.device is None:
        raise GuestOsError("no device attached")
    return env.device.PCI.io_base


def _map_io_space(env, cpu, physical, size):
    if env.device is None:
        raise GuestOsError("no device attached")
    return env.device.PCI.mmio_base


def _register_interrupt(env, cpu, line):
    return NdisStatus.SUCCESS


def _initialize_timer(env, cpu, timer_struct, handler):
    env.timers[timer_struct] = TimerRegistration(timer_struct, handler)
    env.entry_points.setdefault("timer", handler)
    return NdisStatus.SUCCESS


def _set_timer(env, cpu, timer_struct, milliseconds):
    registration = env.timers.get(timer_struct)
    if registration is not None:
        registration.due = True
    return NdisStatus.SUCCESS


def _cancel_timer(env, cpu, timer_struct):
    registration = env.timers.get(timer_struct)
    if registration is not None:
        registration.due = False
    return NdisStatus.SUCCESS


def _write_error_log_entry(env, cpu, code):
    env.error_log.append(code)
    return NdisStatus.SUCCESS


def _stall_execution(env, cpu, microseconds):
    env.stall_microseconds += microseconds
    return NdisStatus.SUCCESS


def _indicate_receive(env, cpu, buffer, length):
    frame = env.machine.memory.read_bytes(buffer, length)
    env.indicated_frames.append(frame)
    return NdisStatus.SUCCESS


def _send_complete(env, cpu, status):
    env.send_completions.append(status)
    return NdisStatus.SUCCESS


def _read_configuration(env, cpu, key):
    return env.registry.get(key, 0)


def _get_physical_address(env, cpu, virtual):
    return virtual  # identity-mapped guest


def _build_dispatch():
    return {
        "NdisMRegisterMiniport": (_register_miniport, 1),
        "NdisMSetAttributes": (_set_attributes, 1),
        "NdisAllocateMemory": (_allocate_memory, 1),
        "NdisFreeMemory": (_free_memory, 2),
        "NdisMAllocateSharedMemory": (_allocate_shared_memory, 2),
        "NdisMFreeSharedMemory": (_free_shared_memory, 2),
        "NdisMRegisterIoPortRange": (_register_io_port_range, 1),
        "NdisMMapIoSpace": (_map_io_space, 2),
        "NdisMRegisterInterrupt": (_register_interrupt, 1),
        "NdisInitializeTimer": (_initialize_timer, 2),
        "NdisSetTimer": (_set_timer, 2),
        "NdisMCancelTimer": (_cancel_timer, 1),
        "NdisWriteErrorLogEntry": (_write_error_log_entry, 1),
        "NdisStallExecution": (_stall_execution, 1),
        "NdisMIndicateReceivePacket": (_indicate_receive, 2),
        "NdisMSendComplete": (_send_complete, 1),
        "NdisReadConfiguration": (_read_configuration, 1),
        "NdisGetPhysicalAddress": (_get_physical_address, 1),
    }


#: Names and stack-arg counts of every OS API (exported for RevNIC's
#: OS-interface knowledge base and for the symbolic-boundary dispatcher).
API_SIGNATURES = {name: nargs for name, (_h, nargs) in
                  _build_dispatch().items()}
