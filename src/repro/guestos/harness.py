"""High-level driver harness: the "user-mode script" analog.

The paper exercises drivers with a user-mode program that loads the driver,
invokes standard IOCTLs, performs sends, exercises reception and unloads
(section 3.2).  :class:`DriverHarness` is that program for both the
concrete functional runs (Table 2) and the performance measurements.
The binary runs in the CPU tier ``exec_backend`` names (see
:mod:`repro.vm.cpu`), ``"compiled"`` by default.  The operations
themselves (send, receive, the IOCTLs) are
:class:`~repro.guestos.front.MiniportFront`'s, shared with the
synthesized driver's template.
"""

from repro.guestos.front import MiniportFront
from repro.guestos.ndis import NdisEnv
from repro.guestos.structures import NdisStatus
from repro.net.medium import Medium
from repro.vm.machine import Machine


class DriverHarness(MiniportFront):
    """Boots a driver binary against a device model and drives it."""

    def __init__(self, image, device_cls, mac=b"\x52\x54\x00\x12\x34\x56",
                 exec_backend="compiled"):
        """``exec_backend`` names the CPU tier the binary runs on (see
        :mod:`repro.vm.cpu`): ``"compiled"`` (default, DBT with
        generated-source blocks and superblocks), ``"blocks"`` (the same
        without superblocks), ``"interp"`` (DBT with the tree-walker) or
        ``"step"`` (the per-instruction interpreter)."""
        self.machine = Machine(exec_backend=exec_backend)
        self.memory = self.machine.memory
        self.medium = Medium()
        self.device = device_cls(mac, medium=self.medium)
        self.medium.attach(self.device)
        self.env = NdisEnv(self.machine, device=self.device)
        self.delivered = self.env.received_frames
        self.error_log = self.env.error_log
        self.call_counts = self.env.call_counts
        self.image = image
        self.initialized = False

    # ------------------------------------------------------------------
    # Lifecycle

    def boot(self):
        """Load the driver and run its initialize entry point."""
        self.env.load_driver(self.image)
        self.env.allocate_adapter_context()
        status = self._call("initialize")
        if status != NdisStatus.SUCCESS:
            raise RuntimeError("driver initialize failed: 0x%08x" % status)
        self.service_interrupts()
        self.initialized = True
        return status

    def halt(self):
        """Run the halt (unload) entry point."""
        status = self._call("halt")
        self.initialized = False
        return status

    # ------------------------------------------------------------------
    # Front primitives

    def _call(self, role, args=()):
        return self.env.call_entry(role, args)

    def _alloc(self, size):
        return self.env.alloc(size)

    def service_interrupts(self):
        return self.env.service_interrupts()

    @property
    def irq_count(self):
        return self.env.irq_count

    @property
    def instrs_retired(self):
        return self.machine.cpu.instret

    @property
    def io_ops(self):
        return self.machine.cpu.io_ops
