"""Observable behavior capture for differential validation.

The matrix compares two executions of "the same driver": the original
binary running under the source-OS harness
(:class:`~repro.guestos.harness.DriverHarness`) and the RevNIC-synthesized
driver pasted into a target-OS template
(:class:`~repro.templates.base.NicTemplate`).  Both are wrapped in a
:class:`DriverUnderTest` facade exposing one operation vocabulary, so a
workload scenario is a single function driven against either side.

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
from repro.guestos.structures import Oid
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


class DriverUnderTest:
    """Uniform operation vocabulary over both sides of the comparison.

    Subclasses provide the wiring (``medium``, ``device``, ``delivered``,
    ``irq_count``, ``error_log``, ``_front``) plus the lifecycle verbs; the
    shared methods record every operation's status code so the *order and
    outcome* of driver calls is itself compared.
    """

    side = "base"

    def __init__(self, driver_name, mac=VALIDATION_MAC):
        self.driver = driver_name
        self.mac = bytes(mac)
        self.peer = PEER_MAC
        self.statuses = []
        self.oids = {}

    # -- wiring supplied by subclasses ---------------------------------

    @property
    def medium(self):
        raise NotImplementedError

    @property
    def device(self):
        raise NotImplementedError

    @property
    def delivered(self):
        raise NotImplementedError

    @property
    def irq_count(self):
        raise NotImplementedError

    @property
    def error_log(self):
        raise NotImplementedError

    def supports(self, role):
        """Whether the driver has entry point ``role`` to exercise."""
        raise NotImplementedError

    def boot(self):
        raise NotImplementedError

    def shutdown(self):
        raise NotImplementedError

    def service(self):
        """Drain pending interrupts (used after quiet injections)."""
        raise NotImplementedError

    # -- shared operations ---------------------------------------------

    def _record(self, label, status):
        self.statuses.append([label, int(status) & 0xFFFFFFFF])
        return status

    def send(self, frame_bytes):
        return self._record("send", self._front.send(frame_bytes))

    def inject(self, frame_bytes):
        """Wire-side arrival with interrupt service (the normal RX path)."""
        return self._front.inject_rx(frame_bytes)

    def inject_quiet(self, frame_bytes):
        """Wire-side arrival *without* servicing interrupts -- back-to-back
        pressure for the overflow scenarios."""
        self.medium.inject(frame_bytes)

    def reset(self):
        return self._record("reset", self._front.reset())

    def set_link(self, up):
        self.medium.set_link(up)

    def set_packet_filter(self, flags):
        return self._record("set_filter",
                            self._front.set_packet_filter(flags))

    def set_multicast_list(self, macs):
        return self._record("set_multicast",
                            self._front.set_multicast_list(macs))

    def set_mac(self, mac):
        return self._record("set_mac", self._front.set_mac(mac))

    def set_full_duplex(self, enabled):
        return self._record("set_full_duplex",
                            self._front.set_full_duplex(enabled))

    def enable_wake_on_lan(self):
        return self._record("enable_wol", self._front.enable_wake_on_lan())

    def set_led(self, mode):
        return self._record("set_led", self._front.set_led(mode))

    def query_mac(self):
        """MAC query through the driver, recorded without raising (a
        failing query is an observation, not a harness error)."""
        status, data = self._front._query_info(Oid.E802_3_CURRENT_ADDRESS, 6)
        self._record("query_mac", status)
        self.oids["mac"] = [int(status) & 0xFFFFFFFF, data.hex()]
        return data

    def query_link_speed(self):
        status, speed = self._front.query_link_speed()
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
    :class:`~repro.guestos.harness.DriverHarness`): ``"compiled"`` by
    default, ``"blocks"`` without superblocks, ``"interp"`` for the DBT
    tree-walker, ``"step"`` for the per-instruction interpreter.
    Observations are identical across tiers; only wall-clock differs.
    """

    side = "original"

    def __init__(self, driver_name, mac=VALIDATION_MAC,
                 exec_backend="compiled"):
        super().__init__(driver_name, mac)
        self._front = DriverHarness(build_driver(driver_name),
                                    device_class(driver_name), mac=mac,
                                    exec_backend=exec_backend)

    @property
    def medium(self):
        return self._front.medium

    @property
    def device(self):
        return self._front.device

    @property
    def delivered(self):
        return self._front.env.indicated_frames

    @property
    def irq_count(self):
        return self._front.env.irq_count

    @property
    def error_log(self):
        return self._front.env.error_log

    def supports(self, role):
        # Entry points are registered during DriverEntry; before boot the
        # static corpus answer is "everything the script exercises".
        if self._front.env.entry_points:
            return role in self._front.env.entry_points
        return True

    def boot(self):
        return self._record("boot", self._front.boot())

    def shutdown(self):
        return self._record("shutdown", self._front.halt())

    def service(self):
        self._front.env.service_interrupts()


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
        super().__init__(artifact.name, mac)
        self.target_os = os_name
        self.side = "synthesized/%s" % os_name
        target = TARGET_OSES[os_name](device_class(artifact.name), mac=mac)
        template_cls = DmaNicTemplate if DRIVERS[artifact.name].uses_dma \
            else NicTemplate
        self._front = template_cls(artifact.synthesized, target,
                                   original_image=artifact.image,
                                   exec_backend=exec_backend)
        self._os = target

    @property
    def medium(self):
        return self._os.medium

    @property
    def device(self):
        return self._os.device

    @property
    def delivered(self):
        return self._os.received_frames

    @property
    def irq_count(self):
        return self._os.irq_count

    @property
    def error_log(self):
        return self._os.error_log

    def supports(self, role):
        return role in self._front.driver.entry_points

    def boot(self):
        return self._record("boot", self._front.initialize())

    def shutdown(self):
        return self._record("shutdown", self._front.shutdown())

    def service(self):
        self._front.service_interrupts()
