"""Machine facade: memory + bus + CPU in one object."""

from repro.layout import HEAP_BASE, HEAP_LIMIT, STACK_LIMIT, STACK_TOP
from repro.vm.bus import Bus
from repro.vm.cpu import Cpu
from repro.vm.memory import Memory


class Machine:
    """A complete guest machine.

    Owns the standard region map (heap + stack; the loader adds the driver
    image regions).  Interrupts are not latched here: the guest-OS
    environment that services a device's interrupt line counts it.
    """

    def __init__(self, exec_backend="step"):
        self.memory = Memory()
        self.bus = Bus(self.memory)
        self.cpu = Cpu(self.bus, exec_backend=exec_backend)
        self.memory.map_region(HEAP_BASE, HEAP_LIMIT - HEAP_BASE, "heap")
        self.memory.map_region(STACK_LIMIT, STACK_TOP - STACK_LIMIT + 0x1000,
                               "stack")
