"""Observable behavior capture for differential validation.

The matrix compares two executions of "the same driver": the original
binary running under the source-OS harness
(:class:`~repro.guestos.harness.DriverHarness`) and the RevNIC-synthesized
driver pasted into a target-OS template
(:class:`~repro.templates.base.NicTemplate`).  Both are a
:class:`~repro.guestos.front.MiniportFront`, so every request reaches
either driver encoded by the same code; the :class:`DriverUnderTest`
facade records each operation's status over the front, so a workload
scenario is a single function driven against either side.

An :class:`Observation` is the flattened, JSON-serializable record of
everything externally observable about one scenario run: frames that hit
the medium, frames delivered up to the OS, driver-operation status codes
in order, device register state and statistics, OID query results,
interrupt counts, and error-log contents.  Two observations being equal is
the functional-equivalence claim of the paper's section 5.2, scenario by
scenario.  Either side runs in the execution tier its ``exec_backend``
names (:func:`repro.ir.backend.resolve_tier`), ``"compiled"`` by
default; observations are identical across tiers.
"""

from dataclasses import asdict, dataclass, field

from repro.drivers import DRIVERS, build_driver, device_class
from repro.guestos.harness import DriverHarness
from repro.targetos import TARGET_OSES
from repro.templates import DmaNicTemplate, NicTemplate

#: Station MAC programmed into every device under validation.
VALIDATION_MAC = b"\x52\x54\x00\xAA\xBB\xCC"
#: The remote peer all workloads talk to.
PEER_MAC = b"\x02\x00\x00\x00\x00\x01"


@dataclass
class Observation:
    """Everything externally observable about one scenario run."""

    driver: str
    side: str                 # 'original' or 'synthesized/<os>'
    scenario: str
    ok: bool = True
    error: str = ""           # exception type name when not ok
    #: driver-operation results in invocation order: [label, status]
    statuses: list = field(default_factory=list)
    #: frames that reached the medium, hex-encoded
    wire_frames: list = field(default_factory=list)
    #: frames the driver handed up to the OS, hex-encoded
    delivered: list = field(default_factory=list)
    link_drops: int = 0
    device_stats: dict = field(default_factory=dict)
    device_state: dict = field(default_factory=dict)
    oids: dict = field(default_factory=dict)
    irq_count: int = 0
    error_log: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def _recorded(label, operation):
    """A facade method running the front's ``operation`` and recording
    its status code under ``label``."""
    def method(self, *args):
        return self._record(label, getattr(self.front, operation)(*args))
    method.__name__ = operation
    return method


class DriverUnderTest:
    """Uniform operation vocabulary over both sides of the comparison.

    ``front`` is the side's :class:`~repro.guestos.front.MiniportFront`,
    which encodes every operation and supplies the wiring; subclasses
    build it and map the lifecycle verbs ``boot`` and ``shutdown``.  The
    shared methods record every operation's status code so the *order
    and outcome* of driver calls is itself compared.
    """

    side = "base"

    def __init__(self, driver_name, front, mac=VALIDATION_MAC):
        self.driver = driver_name
        self.front = front
        self.medium = front.medium
        self.device = front.device
        self.delivered = front.delivered
        self.error_log = front.error_log
        self.mac = bytes(mac)
        self.peer = PEER_MAC
        self.statuses = []
        self.oids = {}

    @property
    def irq_count(self):
        return self.front.irq_count

    def service(self):
        """Drain pending interrupts (used after quiet injections)."""
        self.front.service_interrupts()

    # -- shared operations ---------------------------------------------

    def _record(self, label, status):
        self.statuses.append([label, int(status) & 0xFFFFFFFF])
        return status

    send = _recorded("send", "send")
    reset = _recorded("reset", "reset")
    set_packet_filter = _recorded("set_filter", "set_packet_filter")
    set_multicast_list = _recorded("set_multicast", "set_multicast_list")
    set_mac = _recorded("set_mac", "set_mac")
    set_full_duplex = _recorded("set_full_duplex", "set_full_duplex")
    enable_wake_on_lan = _recorded("enable_wol", "enable_wake_on_lan")
    set_led = _recorded("set_led", "set_led")

    def inject(self, frame_bytes):
        """Wire-side arrival with interrupt service (the normal RX path)."""
        return self.front.inject_rx(frame_bytes)

    def inject_quiet(self, frame_bytes):
        """Wire-side arrival *without* servicing interrupts -- back-to-back
        pressure for the overflow scenarios."""
        self.medium.inject(frame_bytes)

    def set_link(self, up):
        self.medium.set_link(up)

    def query_mac(self):
        """MAC query through the driver, recorded without raising (a
        failing query is an observation, not a harness error)."""
        status, data = self.front.query_current_address()
        self._record("query_mac", status)
        self.oids["mac"] = [int(status) & 0xFFFFFFFF, data.hex()]
        return data

    def query_link_speed(self):
        status, speed = self.front.query_link_speed()
        self._record("query_link_speed", status)
        self.oids["link_speed"] = [int(status) & 0xFFFFFFFF, int(speed)]
        return speed

    # -- snapshot ------------------------------------------------------

    def observation(self, scenario, ok=True, error=""):
        device = self.device
        return Observation(
            driver=self.driver,
            side=self.side,
            scenario=scenario,
            ok=ok,
            error=error,
            statuses=list(self.statuses),
            wire_frames=[f.hex() for f in self.medium.transmitted],
            delivered=[f.hex() for f in self.delivered],
            link_drops=self.medium.link_drops,
            device_stats=dict(device.stats),
            device_state={
                "mac": bytes(device.mac).hex(),
                "promiscuous": device.promiscuous,
                "rx_enabled": device.rx_enabled,
                "full_duplex": device.full_duplex,
                "wol_enabled": device.wol_enabled,
                "led_state": device.led_state,
                "multicast_hash": bytes(device.multicast_hash).hex(),
            },
            oids=dict(self.oids),
            irq_count=self.irq_count,
            error_log=list(self.error_log),
        )


class OriginalDut(DriverUnderTest):
    """The baseline: the original binary on the source-OS harness.

    ``exec_backend`` names the CPU tier (see
    :class:`~repro.guestos.harness.DriverHarness`), ``"compiled"`` by
    default.  Observations are identical across tiers; only wall-clock
    differs.
    """

    side = "original"

    def __init__(self, driver_name, mac=VALIDATION_MAC,
                 exec_backend="compiled"):
        super().__init__(driver_name, DriverHarness(
            build_driver(driver_name), device_class(driver_name), mac=mac,
            exec_backend=exec_backend), mac)

    def boot(self):
        return self._record("boot", self.front.boot())

    def shutdown(self):
        return self._record("shutdown", self.front.halt())


class SynthesizedDut(DriverUnderTest):
    """The candidate: the synthesized driver in a target-OS template.

    ``artifact`` is a :class:`~repro.pipeline.artifact.RunArtifact`; the
    DMA-capable template variant is selected from the corpus metadata,
    exactly as a developer picks the template for a bus-master NIC.
    ``exec_backend`` names the runtime's tier the same way as
    :class:`OriginalDut`'s (``"step"`` tree-walks: synthesized code has
    no per-instruction tier).
    """

    def __init__(self, artifact, os_name, mac=VALIDATION_MAC,
                 exec_backend="compiled"):
        target = TARGET_OSES[os_name](device_class(artifact.name), mac=mac)
        template_cls = DmaNicTemplate if DRIVERS[artifact.name].uses_dma \
            else NicTemplate
        super().__init__(artifact.name, template_cls(
            artifact.synthesized, target, original_image=artifact.image,
            exec_backend=exec_backend), mac)
        self.target_os = os_name
        self.side = "synthesized/%s" % os_name

    def boot(self):
        return self._record("boot", self.front.initialize())

    def shutdown(self):
        return self._record("shutdown", self.front.shutdown())
