"""Workload generation for the evaluation benchmarks and the validation
matrix.

The first half is the paper's own workload: deterministic UDP streams of
fixed payload size (the x axis of Figures 2-7).  The second half is the
adversarial catalog the cross-OS validation matrix (:mod:`repro.validate`)
drives through every driver: runt / oversize / bad-FCS frames,
bidirectional bursts, and RX-ring overflow pressure.  Every generator is
deterministic -- two instances with the same parameters produce identical
byte streams -- because the matrix compares the original binary and the
synthesized driver on *exactly* the same traffic.
"""

import json
from dataclasses import dataclass, field

from repro.net.crc import crc32_ethernet
from repro.net.ethernet import (HEADER_LEN, MAX_PAYLOAD, MIN_PAYLOAD,
                                EthernetFrame, EtherType)
from repro.net.packet import IP_HEADER_LEN, UDP_HEADER_LEN, build_udp_packet

#: UDP payload sizes swept by the paper's figures (x axis 0..1400+ bytes,
#: "up to the maximum length of an Ethernet frame").
DEFAULT_SIZES = (64, 128, 256, 400, 512, 700, 800, 1000, 1100, 1200, 1400,
                 1472)

#: ``_RAMP[i] == i & 0xFF``: every generated payload is a slice of it.
_RAMP = bytes(range(256)) * 64


def _ramp(start, length, step=1):
    """``bytes((start + i * step) & 0xFF for i in range(length))``, as
    one slice of :data:`_RAMP` (``step`` below 64)."""
    start &= 0xFF
    stop = start + length * step
    if stop <= len(_RAMP):
        return _RAMP[start:stop:step]
    # Longer than the ramp: the bytes repeat every 256 positions.
    period = _RAMP[start:start + 256 * step:step]
    return (period * (length // 256 + 1))[:length]


def packet_size_sweep(max_payload=None):
    """Return the UDP payload sizes used on the x axis of Figures 2-7.

    ``max_payload`` caps the sweep; values above the Ethernet limit
    (1500 minus IP and UDP headers) clamp to it, ``0`` yields an empty
    sweep, and negative values are rejected.
    """
    limit = MAX_PAYLOAD - IP_HEADER_LEN - UDP_HEADER_LEN
    if max_payload is None:
        max_payload = limit
    if max_payload < 0:
        raise ValueError("max_payload must be >= 0, got %d" % max_payload)
    return tuple(s for s in DEFAULT_SIZES if s <= min(max_payload, limit))


class UdpWorkload:
    """Deterministic UDP traffic generator.

    Produces Ethernet frames carrying UDP packets of a fixed payload size,
    mirroring the benchmark of paper section 5.3.  ``first`` is the ident
    the stream starts from, so a stream can continue where another left
    off.
    """

    def __init__(self, src_mac, dst_mac, payload_size,
                 src_ip=b"\x0a\x00\x00\x01", dst_ip=b"\x0a\x00\x00\x02",
                 src_port=9000, dst_port=9001, first=0):
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.payload_size = payload_size
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        #: IP ident (and payload ramp start) of the next frame
        self._ident = first & 0xFFFF

    def next_frame(self):
        """Build the next frame in the stream."""
        payload = _ramp(self._ident, self.payload_size)
        packet = build_udp_packet(self.src_ip, self.dst_ip, self.src_port,
                                  self.dst_port, payload, ident=self._ident)
        self._ident = (self._ident + 1) & 0xFFFF
        if len(packet) < 46:
            packet += b"\0" * (46 - len(packet))
        return EthernetFrame(dst=self.dst_mac, src=self.src_mac,
                             ethertype=EtherType.IPV4, payload=packet)

    def frames(self, count):
        """Yield ``count`` frames."""
        for _ in range(count):
            yield self.next_frame()


# ==========================================================================
# Adversarial generators (the validation-matrix workload catalog)

def _pattern(length, seed=0):
    """Deterministic filler bytes: ``(seed + 3 + 7 * i) & 0xFF``."""
    return _ramp(seed + 3, length, 7)


def runt_frame(dst, src, total_length=32, seed=0):
    """A frame shorter than the 60-byte Ethernet minimum, as raw bytes.

    Deliberately bypasses :class:`EthernetFrame`'s length validation: the
    point is to hand the device models (and through them the drivers)
    malformed wire input.  ``total_length`` must cover at least the
    destination address and stay below the legal minimum.
    """
    minimum = HEADER_LEN + MIN_PAYLOAD
    if not 6 <= total_length < minimum:
        raise ValueError("runt length must be in [6, %d), got %d"
                         % (minimum, total_length))
    raw = (bytes(dst) + bytes(src)
           + int(EtherType.IPV4).to_bytes(2, "big")
           + _pattern(max(total_length - HEADER_LEN, 0), seed))
    return raw[:total_length]


def oversize_frame(dst, src, payload_length=MAX_PAYLOAD + 100, seed=0):
    """A frame whose payload exceeds the 1500-byte Ethernet maximum.

    Capped at 1900 payload bytes so the frame still fits the smallest
    on-chip packet buffer of the device models; the interesting question
    is how the *driver* handles it, not whether the model's memory wraps.
    """
    if not MAX_PAYLOAD < payload_length <= 1900:
        raise ValueError("oversize payload must be in (%d, 1900], got %d"
                         % (MAX_PAYLOAD, payload_length))
    return (bytes(dst) + bytes(src)
            + int(EtherType.IPV4).to_bytes(2, "big")
            + _pattern(payload_length, seed))


def frame_with_fcs(frame_bytes, corrupt=False):
    """Append the CRC-32 FCS to ``frame_bytes``; ``corrupt=True`` inverts
    it (a frame any checking receiver must reject)."""
    fcs = crc32_ethernet(frame_bytes)
    if corrupt:
        fcs ^= 0xFFFFFFFF
    return bytes(frame_bytes) + fcs.to_bytes(4, "little")


def addressed_frame(dst, src, tag=0, payload_size=64):
    """A well-formed frame whose payload encodes ``tag`` (so deliveries
    can be traced back to the injected frame that caused them)."""
    payload = bytes([tag & 0xFF]) + _pattern(payload_size - 1, seed=tag)
    return EthernetFrame(dst=bytes(dst), src=bytes(src),
                         ethertype=EtherType.IPV4,
                         payload=payload).to_bytes()


def overflow_burst(src_mac, dst_mac, count=40, payload_size=300):
    """``count`` back-to-back RX frames for ring-overflow pressure.

    Injected without servicing interrupts in between, these overrun any
    bounded RX ring; the matrix checks that the original and synthesized
    drivers drop and recover identically.
    """
    workload = UdpWorkload(src_mac, dst_mac, payload_size)
    return [frame.to_bytes() for frame in workload.frames(count)]


class BidirectionalBurst:
    """Deterministic interleaved TX/RX burst schedule.

    Yields ``('tx', frame_bytes)`` / ``('rx', frame_bytes)`` events:
    bursts of sends interleaved with bursts of receives, with burst
    lengths cycling through ``pattern``.  Models the full-duplex traffic
    mix the paper's unidirectional UDP sweep never exercises.
    """

    def __init__(self, mac, peer, payload_size=128, rounds=4,
                 pattern=(1, 3, 2)):
        if not pattern or any(n < 0 for n in pattern):
            raise ValueError("pattern must be non-empty and non-negative")
        self.tx = UdpWorkload(mac, peer, payload_size)
        self.rx = UdpWorkload(peer, mac, payload_size,
                              src_ip=b"\x0a\x00\x00\x02",
                              dst_ip=b"\x0a\x00\x00\x01",
                              src_port=9001, dst_port=9000)
        self.rounds = rounds
        self.pattern = tuple(pattern)

    def events(self):
        """Yield the full schedule as ``(kind, frame_bytes)`` tuples."""
        for round_index in range(self.rounds):
            tx_burst = self.pattern[round_index % len(self.pattern)]
            rx_burst = self.pattern[(round_index + 1) % len(self.pattern)]
            for frame in self.tx.frames(tx_burst):
                yield "tx", frame.to_bytes()
            for frame in self.rx.frames(rx_burst):
                yield "rx", frame.to_bytes()


# ==========================================================================
# Scenario programs: the one workload form
#
# A ScenarioProgram is *data*: an ordered list of ScenarioSteps, each an
# (op, params) pair over the DriverUnderTest facade vocabulary.  The
# validation catalog, the fuzzer's generated programs, the soak and the
# fabric workloads are all programs.  Programs serialize to canonical
# JSON, so any workload replays bit-for-bit from its serialized form
# alone -- no generator, no seed, no library version required.

#: Address palette for injected frames and programmed addresses.
#: ``station`` resolves to the DUT's programmed MAC at run time;
#: everything else is a fixed address so serialized programs stay
#: self-contained.  ``relocated`` is a second station address, for
#: ``set_mac`` steps and the traffic that follows them.
DST_KINDS = {
    "station": None,
    "stranger": b"\x02\x99\x02\x99\x02\x99",
    "broadcast": b"\xff" * 6,
    "multicast_a": b"\x01\x00\x5e\x00\x00\x01",
    "multicast_b": b"\x01\x00\x5e\x00\x00\x17",
    "multicast_out": b"\x01\x00\x5e\x7f\x00\x42",
    "relocated": b"\x52\x54\x00\x01\x02\x03",
}

#: Multicast groups a ``set_multicast`` step may program, by palette key.
MULTICAST_GROUPS = ("multicast_a", "multicast_b", "multicast_out")


def resolve_dst(kind, dut):
    """The MAC a palette ``kind`` names for this DUT."""
    if kind not in DST_KINDS:
        raise ValueError("unknown dst kind %r" % (kind,))
    resolved = DST_KINDS[kind]
    return dut.mac if resolved is None else resolved


# -- step executors: one per vocabulary op ---------------------------------

def _step_send_burst(dut, p):
    workload = UdpWorkload(resolve_dst(p.get("src", "station"), dut),
                           dut.peer, p["size"], first=p.get("first", 0))
    for frame in workload.frames(p["count"]):
        dut.send(frame.to_bytes())


def _step_send_to(dut, p):
    """A TX burst to an explicit destination MAC (hex in the params, so
    serialized programs stay self-contained).  The fabric workloads use
    this for cross-traffic between endpoints; on a dedicated medium it is
    just ``send_burst`` with a different address."""
    workload = UdpWorkload(dut.mac, bytes.fromhex(p["dst"]), p["size"])
    for frame in workload.frames(p["count"]):
        dut.send(frame.to_bytes())


def _step_inject_burst(dut, p):
    workload = UdpWorkload(dut.peer, dut.mac, p["size"],
                           src_ip=b"\x0a\x00\x00\x02",
                           dst_ip=b"\x0a\x00\x00\x01",
                           src_port=9001, dst_port=9000)
    for frame in workload.frames(p["count"]):
        dut.inject(frame.to_bytes())


def _step_quiet_burst(dut, p):
    for frame in overflow_burst(dut.peer, dut.mac, count=p["count"],
                                payload_size=p["size"]):
        dut.inject_quiet(frame)


def _step_service(dut, p):
    dut.service()


def _step_inject_tagged(dut, p):
    dut.inject(addressed_frame(resolve_dst(p["dst"], dut), dut.peer,
                               tag=p["tag"]))


def _step_inject_runt(dut, p):
    dut.inject(runt_frame(dut.mac, dut.peer, total_length=p["length"],
                          seed=p.get("seed", 0)))


def _step_inject_oversize(dut, p):
    dut.inject(oversize_frame(dut.mac, dut.peer,
                              payload_length=p["length"],
                              seed=p.get("seed", 0)))


def _step_inject_fcs(dut, p):
    base = addressed_frame(dut.mac, dut.peer, tag=p["tag"])
    dut.inject(frame_with_fcs(base, corrupt=bool(p["corrupt"])))


def _step_bidirectional(dut, p):
    burst = BidirectionalBurst(dut.mac, dut.peer,
                               payload_size=p["size"],
                               rounds=p["rounds"],
                               pattern=tuple(p["pattern"]))
    for kind, frame in burst.events():
        if kind == "tx":
            dut.send(frame)
        else:
            dut.inject(frame)


def _step_set_link(dut, p):
    dut.set_link(bool(p["up"]))


def _step_link_flap(dut, p):
    """The proven cable-pull pattern: link down, traffic into the void,
    link up, reset (the driver-visible recovery the catalog exercises)."""
    dut.set_link(False)
    workload = UdpWorkload(dut.mac, dut.peer, p["size"])
    for frame in workload.frames(p["frames_down"]):
        dut.send(frame.to_bytes())
    dut.set_link(True)
    dut.reset()


def _step_reset(dut, p):
    dut.reset()


def _step_set_filter(dut, p):
    dut.set_packet_filter(p["flags"])


def _step_set_multicast(dut, p):
    dut.set_multicast_list([resolve_dst(g, dut) for g in p["groups"]])


def _step_query_mac(dut, p):
    dut.query_mac()


def _step_query_link_speed(dut, p):
    dut.query_link_speed()


def _step_shutdown(dut, p):
    dut.shutdown()


def _step_set_mac(dut, p):
    dut.set_mac(resolve_dst(p["mac"], dut))


def _step_set_full_duplex(dut, p):
    dut.set_full_duplex(bool(p["enabled"]))


def _step_enable_wol(dut, p):
    dut.enable_wake_on_lan()


def _step_set_led(dut, p):
    dut.set_led(p["mode"])


@dataclass(frozen=True)
class StepSpec:
    """One vocabulary op: its executor, the entry-point roles (beyond
    initialize/send/isr) a driver must carry to run it, the parameter
    ``keys`` every step of the op must carry, the ``optional`` keys it
    may carry, and the ``palette`` keys whose values name
    :data:`DST_KINDS` entries (a list of them for ``groups``)."""

    execute: callable
    requires: tuple = ()
    keys: tuple = ()
    optional: tuple = ()
    palette: tuple = ()


_SET_INFO = ("set_information",)
_QUERY_INFO = ("query_information",)


#: The step vocabulary.  Adding an op here is all the formal machinery a
#: new fuzz strategy needs: generators emit (op, params), replay runs it.
STEP_VOCABULARY = {
    "send_burst": StepSpec(_step_send_burst, keys=("size", "count"),
                           optional=("first", "src"), palette=("src",)),
    "send_to": StepSpec(_step_send_to, keys=("dst", "size", "count")),
    "inject_burst": StepSpec(_step_inject_burst, keys=("size", "count")),
    "quiet_burst": StepSpec(_step_quiet_burst, keys=("size", "count")),
    "service": StepSpec(_step_service),
    "inject_tagged": StepSpec(_step_inject_tagged, keys=("dst", "tag"),
                              palette=("dst",)),
    "inject_runt": StepSpec(_step_inject_runt, keys=("length",),
                            optional=("seed",)),
    "inject_oversize": StepSpec(_step_inject_oversize, keys=("length",),
                                optional=("seed",)),
    "inject_fcs": StepSpec(_step_inject_fcs, keys=("tag", "corrupt")),
    "bidirectional": StepSpec(_step_bidirectional,
                              keys=("size", "rounds", "pattern")),
    "set_link": StepSpec(_step_set_link, keys=("up",)),
    "link_flap": StepSpec(_step_link_flap, ("reset",),
                          keys=("size", "frames_down")),
    "reset": StepSpec(_step_reset, ("reset",)),
    "set_filter": StepSpec(_step_set_filter, _SET_INFO, keys=("flags",)),
    "set_multicast": StepSpec(_step_set_multicast, _SET_INFO, keys=("groups",),
                              palette=("groups",)),
    "query_mac": StepSpec(_step_query_mac, _QUERY_INFO),
    "query_link_speed": StepSpec(_step_query_link_speed, _QUERY_INFO),
    "shutdown": StepSpec(_step_shutdown, ("halt",)),
    "set_mac": StepSpec(_step_set_mac, _SET_INFO, keys=("mac",),
                        palette=("mac",)),
    "set_full_duplex": StepSpec(_step_set_full_duplex, _SET_INFO,
                                keys=("enabled",)),
    "enable_wol": StepSpec(_step_enable_wol, _SET_INFO),
    "set_led": StepSpec(_step_set_led, _SET_INFO, keys=("mode",)),
}


@dataclass(frozen=True)
class ScenarioStep:
    """One (op, params) pair over the DriverUnderTest vocabulary."""

    op: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = STEP_VOCABULARY.get(self.op)
        if spec is None:
            raise ValueError("unknown step op %r" % (self.op,))
        # a step is a value: detach from the caller's mutable dict
        object.__setattr__(self, "params", dict(self.params))
        # a typo would raise identically on both sides at run time, or
        # silently fall back to a default, and classify as a match,
        # testing nothing: reject it here
        missing = [key for key in spec.keys if key not in self.params]
        if missing:
            raise ValueError("step %r lacks params %s"
                             % (self.op, ", ".join(missing)))
        unknown = sorted(set(self.params) - set(spec.keys)
                         - set(spec.optional))
        if unknown:
            raise ValueError("step %r has unknown params %s"
                             % (self.op, ", ".join(unknown)))
        for key in spec.palette:
            value = self.params.get(key, "station")
            for kind in value if key == "groups" else (value,):
                if kind not in DST_KINDS:
                    raise ValueError("step %r: unknown %s kind %r"
                                     % (self.op, key, kind))

    @property
    def requires(self):
        return STEP_VOCABULARY[self.op].requires

    def execute(self, dut):
        STEP_VOCABULARY[self.op].execute(dut, self.params)

    def to_list(self):
        """``[op, params]`` -- the serialized step form."""
        return [self.op, dict(self.params)]

    @classmethod
    def from_list(cls, data):
        op, params = data
        return cls(op=op, params=dict(params))


@dataclass(frozen=True)
class ScenarioProgram:
    """A replayable workload: boot, then a fixed step list.

    ``requires`` is derived from the steps' ops, never declared.
    ``seed`` records how the program was generated; replay never uses
    it -- the step list alone is the program.
    """

    name: str
    steps: tuple
    seed: int = 0
    description: str = "generated scenario program"

    @property
    def requires(self):
        roles = set()
        for step in self.steps:
            roles.update(step.requires)
        return tuple(sorted(roles))

    def run(self, dut):
        dut.boot()
        for step in self.steps:
            step.execute(dut)

    # -- serialization (canonical: replay needs the JSON alone) --------

    def to_dict(self):
        return {"name": self.name, "seed": self.seed,
                "description": self.description,
                "steps": [step.to_list() for step in self.steps]}

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], seed=data.get("seed", 0),
                   description=data.get("description",
                                        "generated scenario program"),
                   steps=tuple(ScenarioStep.from_list(s)
                               for s in data["steps"]))

    def to_json(self):
        """Canonical JSON: sorted keys, no whitespace -- two equal
        programs serialize byte-identically."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))
