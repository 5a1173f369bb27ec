"""The NIC driver template hierarchy (paper section 4.2, Listing 2).

:class:`NicTemplate` is the paper's generic wired-NIC template: it carries
the OS-specific boilerplate (resource allocation, persistent-state
allocation, registration, interrupt hookup, data-structure adaptation) with
placeholders filled by RevNIC-synthesized entry points.
:class:`DmaNicTemplate` derives from it and adds the DMA-capable flow.

Both templates are a :class:`~repro.guestos.front.MiniportFront`, the
same operation encoder the source-OS harness
(:class:`~repro.guestos.harness.DriverHarness`) is built on, which is
what makes the Table 2 functional-equivalence comparison symmetric.
"""

from dataclasses import dataclass

from repro.errors import TemplateError
from repro.guestos.front import MiniportFront
from repro.guestos.structures import ADAPTER_CONTEXT_SIZE, NdisStatus
from repro.templates.runtime import SyntheticDriverRuntime


@dataclass(frozen=True)
class TemplateInfo:
    """Table 3's reference input for one target OS."""

    target_os: str
    person_days_paper: int     # the paper's reported effort


#: Table 3's paper column: the person-days the paper reports per
#: template.  The repo's own proxies (boilerplate lines, adapted API
#: entries) are measured live by ``repro.eval.tables.table3_compute``.
TEMPLATE_INFO = {
    "winsim": TemplateInfo("winsim", person_days_paper=5),
    "linsim": TemplateInfo("linsim", person_days_paper=3),
    "ucsim": TemplateInfo("ucsim", person_days_paper=1),
    "kitos": TemplateInfo("kitos", person_days_paper=0),
}


class NicTemplate(MiniportFront):
    """Generic wired-NIC template (no DMA assumptions)."""

    query_error = TemplateError

    def __init__(self, synthesized_driver, target_os, original_image=None,
                 exec_backend="compiled"):
        self.driver = synthesized_driver
        self.os = target_os
        self.memory = target_os.machine.memory
        self.medium = target_os.medium
        self.device = target_os.device
        self.delivered = target_os.received_frames
        self.error_log = target_os.error_log
        self.runtime = SyntheticDriverRuntime(
            synthesized_driver, target_os, exec_backend=exec_backend)
        self.call_counts = self.runtime.call_counts
        if original_image is not None:
            self.runtime.seed_data_image(original_image)
        self.context = 0
        self.initialized = False

    # ------------------------------------------------------------------
    # Boilerplate: init flow (the paper's Listing 2)

    def initialize(self):
        """Template init: allocate persistent state, run the synthesized
        init function, service the post-init interrupt, adapt structures."""
        # -- "the template allocates persistent state. A pointer to this
        #    state is passed to each reverse engineered entry point."
        self.context = self.os.alloc(ADAPTER_CONTEXT_SIZE, align=64)
        # -- "Developers paste calls to RevNIC-synthesized hardware-related
        #    functions here."
        status = self._call("initialize")
        if status != NdisStatus.SUCCESS:
            # -- "Error recovery provided by the template (e.g., unload)"
            self.shutdown()
            raise TemplateError("synthesized initialize failed: 0x%08x"
                                % status)
        self.service_interrupts()
        self.initialized = True
        return status

    def shutdown(self):
        """Template unload path; returns the halt entry point's status."""
        status = NdisStatus.SUCCESS
        if "halt" in self.driver.entry_points:
            status = self._call("halt")
        self.initialized = False
        return status

    def service_interrupts(self, max_rounds=8):
        """Template ISR dispatch: "an interrupt handler ... first calls a
        hardware routine to check that the device has indeed triggered the
        interrupt, before handling it"."""
        rounds = 0
        while self.os.irq_pending and rounds < max_rounds:
            self.os.irq_pending = False
            if "isr" in self.driver.entry_points:
                self._call("isr")
            rounds += 1
        return rounds

    def fire_timers(self):
        fired = 0
        for timer in self.os.timers.values():
            if timer.due:
                timer.due = False
                self.runtime.call_address(timer.handler, [self.context])
                fired += 1
        return fired

    # ------------------------------------------------------------------
    # Front primitives: the OS packet and IOCTL structures adapt to the
    # (context, args...) the synthesized entry points take -- the
    # NDIS_PACKET -> sk_buff adaptation of section 4.2.

    def _call(self, role, args=()):
        return self.runtime.call(role, [self.context, *args])

    def _alloc(self, size):
        return self.os.alloc(size)

    @property
    def irq_count(self):
        return self.os.irq_count

    @property
    def instrs_retired(self):
        return self.runtime.env.instrs_retired

    @property
    def io_ops(self):
        return self.runtime.env.io_ops


class DmaNicTemplate(NicTemplate):
    """Derived template adding DMA capability.

    Bus-master devices fetch descriptors/buffers straight from guest
    memory; the derived template ensures the device model has bus access
    and accounts DMA setup in initialization.
    """

    def initialize(self):
        if self.os.device.bus is None:
            self.os.device.bus = self.os.machine.bus
        return super().initialize()
