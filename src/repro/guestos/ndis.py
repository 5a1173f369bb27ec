"""NDIS-like kernel API environment for the source OS.

Drivers import these functions by name; the loader binds each import to a
thunk address and the VM dispatches thunk calls to the shared
:class:`~repro.guestos.kernel.NdisKernel`.  On top of it the source OS
does what RevNIC's entry-point discovery depends on: the
``NdisMRegisterMiniport`` and ``NdisInitializeTimer`` registrations are
recorded, giving RevNIC the list of functions to exercise (paper section
3.2).  It also sets the adapter context, traces every API call, and loads
and invokes the driver.
"""

from dataclasses import dataclass

from repro.errors import GuestOsError
from repro.guestos.kernel import SUCCESS, NdisKernel
from repro.guestos.structures import (
    ADAPTER_CONTEXT_SIZE,
    MINIPORT_FIELDS,
    NdisStatus,
)
from repro.layout import RETURN_TO_OS, STACK_TOP
from repro.vm.cpu import ExitReason


@dataclass
class ApiCallRecord:
    """One OS API call made by the driver (feeds Figure 9's function
    classification: functions whose traces contain OS calls are the
    "manual" template-integration ones)."""

    name: str
    args: tuple
    caller_pc: int


class NdisEnv(NdisKernel):
    """The source-OS kernel services exposed to the driver."""

    kernel_error = GuestOsError

    def __init__(self, machine, device=None):
        super().__init__(machine, device)
        self.loaded = None
        self.entry_points = {}          # name -> virtual address
        #: entry-point invocations by role
        self.call_counts = {}
        self.adapter_context = 0
        self.api_calls = []
        machine.cpu.import_handler = self._import_call

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
        for timer in list(self.timers.values()):
            if timer.due:
                timer.due = False
                self.invoke(timer.handler, [self.adapter_context])
                fired += 1
        return fired

    # ------------------------------------------------------------------
    # Import dispatch: the shared kernel answers, the source OS records

    def _import_call(self, cpu, slot):
        if self.loaded is None:
            raise GuestOsError("import call before any driver was loaded")
        name = self.loaded.import_names.get(slot)
        if name is None:
            raise GuestOsError("call to unknown import slot %d" % slot)
        result, nargs = self.call(name, cpu.read_stack_arg)
        args = tuple(map(cpu.read_stack_arg, range(nargs)))
        self.api_calls.append(ApiCallRecord(name, args, cpu.pc))
        cpu.regs[0] = result & 0xFFFFFFFF
        return nargs

    def _register_miniport(self, a):
        characteristics = a(0)
        memory = self.machine.memory
        for name, offset in MINIPORT_FIELDS.items():
            pointer = memory.read(characteristics + offset, 4)
            if pointer:
                self.entry_points[name] = pointer
        return SUCCESS

    def _set_attributes(self, a):
        self.adapter_context = a(0)
        return SUCCESS

    def _initialize_timer(self, a):
        self.entry_points.setdefault("timer", a(1))
        return super()._initialize_timer(a)
