"""Fabric endpoints: synthesized drivers as switch ports.

A :class:`FabricEndpoint` wraps a :class:`~repro.validate.observe`
``DriverUnderTest`` -- in the fleet, always a synthesized driver in a
target-OS template -- and adapts it to the switch's port contract:

* **harvest** pops the burst of frames the driver put on its medium since
  the last visit (one Python call per burst) and remembers them in a wire
  history, so the endpoint's :meth:`observation` still reports the full
  transmit log even though the switch consumed the frames;
* **deliver** pushes a switched burst into the driver; inside the batch
  each frame takes the normal per-frame RX path (inject + interrupt
  service), so driver-visible semantics are identical to a dedicated
  point-to-point medium -- the property the sampled-endpoint differential
  check asserts;
* **run_due** executes the endpoint's scheduled traffic-program steps.

The mirror (:mod:`~repro.net.fabric.mirror`) reuses harvest, deliver and
the observation outside the fleet, with no program of its own.
"""

import hashlib
import json

#: Locally administered unicast OUI-ish prefix for fleet endpoints.
_MAC_PREFIX = b"\x52\x54\x00\xFB"


def fabric_mac(index):
    """The deterministic station MAC of fleet endpoint ``index``."""
    if not 0 <= index <= 0xFFFF:
        raise ValueError("endpoint index out of range: %d" % index)
    return _MAC_PREFIX + bytes([(index >> 8) & 0xFF, index & 0xFF])


class FabricEndpoint:
    """One driver-under-test attached to a switch port.

    ``slot`` is the endpoint's :class:`~repro.net.fabric.workloads.
    EndpointProgram` (its traffic program plus start/stride schedule), or
    ``None`` for a passive endpoint that only reacts to received frames.
    ``spec`` carries the (driver, os, backend) identity for the report.
    """

    def __init__(self, index, dut, slot=None, spec=None):
        self.index = index
        self.dut = dut
        self.mac = dut.mac
        self.slot = slot
        self.spec = spec
        #: frames the switch harvested off this endpoint's medium, in
        #: transmit order (the observation's wire log)
        self.wire_history = []
        self.tx_frames = 0
        self.rx_frames = 0
        self.steps_run = 0
        #: steps whose execution raised (recorded, never fleet-fatal)
        self.step_errors = []
        self._next_step = 0

    # -- lifecycle -----------------------------------------------------

    def boot(self):
        self.dut.boot()

    # -- scheduling ----------------------------------------------------

    def due_tick(self):
        """The tick of the next unexecuted program step, or ``None``."""
        if self.slot is None \
                or self._next_step >= len(self.slot.program.steps):
            return None
        return self.slot.start + self._next_step * self.slot.stride

    def last_tick(self):
        """The tick of the final program step, or ``None`` (no program)."""
        if self.slot is None or not self.slot.program.steps:
            return None
        return self.slot.start \
            + (len(self.slot.program.steps) - 1) * self.slot.stride

    def run_due(self, tick):
        """Execute every program step scheduled at or before ``tick``."""
        ran = 0
        while True:
            due = self.due_tick()
            if due is None or due > tick:
                break
            step = self.slot.program.steps[self._next_step]
            self._next_step += 1
            try:
                step.execute(self.dut)
            except Exception as exc:
                # Same discipline as run_scenario: a failing driver call
                # is an observation about this endpoint, not a reason to
                # kill a fleet of hundreds.  Deterministic, so it cannot
                # break report byte-identity.
                self.step_errors.append([step.op, type(exc).__name__])
            ran += 1
        self.steps_run += ran
        return ran

    # -- switch port contract ------------------------------------------

    def harvest(self):
        """Pop and remember the burst transmitted since the last visit."""
        frames = self.dut.medium.pop_transmitted()
        if frames:
            self.wire_history.extend(frames)
            self.tx_frames += len(frames)
        return frames

    def deliver(self, frames, quiet=False):
        """Deliver a switched burst -- one call per burst.

        Per frame the normal RX path runs (inject + interrupt service),
        exactly what ``dut.inject`` does on a dedicated medium; ``quiet``
        skips servicing (the overflow-pressure path, ``inject_quiet``).
        """
        receive = self.dut.inject_quiet if quiet else self.dut.inject
        for frame in frames:
            receive(frame)
        self.rx_frames += len(frames)

    # -- reporting -----------------------------------------------------

    def observation(self, scenario, ok=True, error=""):
        """The DUT observation with the harvested wire history restored."""
        obs = self.dut.observation(scenario, ok=ok, error=error)
        obs.wire_frames = [f.hex() for f in self.wire_history] \
            + obs.wire_frames
        return obs

    def counters(self):
        """Deterministic per-endpoint section of the fabric report."""
        medium = self.dut.medium
        statuses = json.dumps(self.dut.statuses, sort_keys=True,
                              separators=(",", ":"))
        record = {
            "index": self.index,
            "mac": self.mac.hex(),
            "steps": self.steps_run,
            "tx_frames": self.tx_frames,
            "rx_frames": self.rx_frames,
            "wire_bytes": medium.tx_bytes,
            "link_drops": medium.link_drops,
            "delivered": len(self.dut.delivered),
            "irq_count": self.dut.irq_count,
            "errors": len(self.dut.error_log),
            "step_errors": list(self.step_errors),
            "status_digest":
                hashlib.sha256(statuses.encode()).hexdigest()[:16],
        }
        if self.spec is not None:
            record.update(self.spec.to_dict())
        front = self.dut.front
        record["instrs_retired"] = front.instrs_retired
        record["calls"] = dict(sorted(front.call_counts.items()))
        return record
