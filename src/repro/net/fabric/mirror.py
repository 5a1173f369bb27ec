"""The sampled-endpoint differential: fabric vs dedicated medium.

The fabric's correctness claim is that sitting behind a switch is
invisible to a driver: the same scenario program produces the same
observation whether the endpoint owns a point-to-point
:class:`~repro.net.medium.Medium` or shares a switched segment.
:func:`run_mirrored_program` makes that checkable -- it runs a program
with :func:`~repro.validate.scenarios.run_scenario` against a
:class:`SwitchedDut`, a DUT whose wire crosses a 2-port switch: every
wire-side arrival enters at the host port and reaches the driver through
the switch, and every transmit is harvested through the switch to the
host.  The step executors are the vocabulary's own, so every op --
current or future -- crosses the switch with no mirror-side code.

:func:`mirror_verdict` then classifies the fabric observation against
the dedicated-medium run of the same program with the shared divergence
semantics -- the acceptance gate asserts ``match`` (equivalent).
"""

from repro.net.fabric.endpoint import FabricEndpoint
from repro.net.fabric.switch import SwitchNode

#: Egress queue depth of the mirror's switch: each arrival is drained
#: at once, so no program comes near it.
MIRROR_QUEUE_DEPTH = 4096
#: Effectively infinite: the mirror has no logical clock, and a
#: dedicated medium never forgets its peer either.
MIRROR_MAC_AGE = 1 << 30

_DUT_PORT, _HOST_PORT = 0, 1


class SwitchedDut:
    """``dut`` on port 0 of a 2-port switch whose port 1 is the host.

    Only the wire is re-routed: :meth:`inject` and :meth:`inject_quiet`
    carry the frame from the host port across the switch, :meth:`send`
    harvests the transmit across it to the host (a pure sink), and
    :meth:`observation` restores the harvested wire history.  Every
    other attribute is the wrapped DUT's.
    """

    def __init__(self, dut):
        self.switch = SwitchNode(2, queue_depth=MIRROR_QUEUE_DEPTH,
                                 mac_age=MIRROR_MAC_AGE)
        self.endpoint = FabricEndpoint(_DUT_PORT, dut)

    def __getattr__(self, name):
        return getattr(self.endpoint.dut, name)

    def _arrive(self, frame, quiet):
        self.switch.switch_batch(_HOST_PORT, [frame])
        self.endpoint.deliver(self.switch.drain(_DUT_PORT), quiet=quiet)

    def inject(self, frame_bytes):
        self._arrive(frame_bytes, quiet=False)

    def inject_quiet(self, frame_bytes):
        self._arrive(frame_bytes, quiet=True)

    def send(self, frame_bytes):
        status = self.endpoint.dut.send(frame_bytes)
        self.switch.switch_batch(_DUT_PORT, self.endpoint.harvest())
        self.switch.drain(_HOST_PORT)
        return status

    def observation(self, scenario, ok=True, error=""):
        return self.endpoint.observation(scenario, ok=ok, error=error)


def run_mirrored_program(dut, program):
    """Run ``program`` with ``dut`` behind a 2-port switch; returns the
    fabric-side :class:`~repro.validate.observe.Observation`."""
    from repro.validate.scenarios import run_scenario

    return run_scenario(SwitchedDut(dut), program)


def mirror_verdict(make_dut, program):
    """Classify fabric vs dedicated-medium observations for one DUT.

    ``make_dut`` is a zero-argument factory (each side needs a fresh
    instance).  Returns ``(verdict, dedicated_obs, fabric_obs)`` where
    ``verdict`` is the shared
    :class:`~repro.validate.differ.DifferentialVerdict`.
    """
    from repro.validate.differ import classify_observations
    from repro.validate.scenarios import run_scenario

    dedicated = run_scenario(make_dut(), program)
    mirrored = run_mirrored_program(make_dut(), program)
    return (classify_observations(dedicated, mirrored), dedicated,
            mirrored)
