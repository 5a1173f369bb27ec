"""Machine facade: memory + bus + CPU + interrupt lines in one object."""

from repro.layout import HEAP_BASE, HEAP_LIMIT, STACK_LIMIT, STACK_TOP
from repro.vm.bus import Bus
from repro.vm.cpu import Cpu
from repro.vm.memory import Memory


class Machine:
    """A complete guest machine.

    Owns the standard region map (heap + stack; the loader adds the driver
    image regions) and an interrupt latch: :meth:`raise_irq` asserts a
    line and :meth:`drain_irqs` hands the latched lines to whoever
    services them.
    """

    def __init__(self, exec_backend="step"):
        self.memory = Memory()
        self.bus = Bus(self.memory)
        self.cpu = Cpu(self.bus, exec_backend=exec_backend)
        self._pending_irqs = []
        self.irq_count = 0
        self.memory.map_region(HEAP_BASE, HEAP_LIMIT - HEAP_BASE, "heap")
        self.memory.map_region(STACK_LIMIT, STACK_TOP - STACK_LIMIT + 0x1000,
                               "stack")

    # ------------------------------------------------------------------
    # Interrupts

    def raise_irq(self, line):
        """Assert interrupt ``line``: latch it for :meth:`drain_irqs`."""
        self.irq_count += 1
        self._pending_irqs.append(line)

    def drain_irqs(self):
        """Return and clear the latched interrupts."""
        pending, self._pending_irqs = self._pending_irqs, []
        return pending
