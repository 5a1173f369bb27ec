"""Fleet-scale switched fabric: many synthesized drivers, one segment.

The validation matrix runs one driver against one point-to-point
:class:`~repro.net.medium.Medium`.  This package is the opposite shape
-- the ROADMAP's "millions of users" direction: a learning Ethernet
switch (:mod:`~repro.net.fabric.switch`) connects N synthesized-driver
endpoints (:mod:`~repro.net.fabric.endpoint`) exchanging seeded,
replayable cross-traffic (:mod:`~repro.net.fabric.workloads`) under a
batched event-driven scheduler (:mod:`~repro.net.fabric.fleet`), with
every run recorded as a canonical report
(:mod:`~repro.net.fabric.report`) and the switch's transparency to any
single driver checked differentially (:mod:`~repro.net.fabric.mirror`:
any scenario program runs unchanged on a DUT whose wire crosses a
2-port switch, and must observe what it observes on a dedicated
medium).
"""

from repro.net.fabric.endpoint import FabricEndpoint, fabric_mac
from repro.net.fabric.fleet import (EndpointSpec, FabricRun, build_fleet,
                                    fleet_specs, run_fleet)
from repro.net.fabric.mirror import (SwitchedDut, mirror_verdict,
                                     run_mirrored_program)
from repro.net.fabric.report import (FABRIC_SCHEMA_VERSION, build_report,
                                     canonical_fabric_json, fabric_to_json)
from repro.net.fabric.switch import (DEFAULT_MAC_AGE, DEFAULT_QUEUE_DEPTH,
                                     SwitchNode, SwitchPort)
from repro.net.fabric.workloads import (WORKLOADS, EndpointProgram,
                                        FleetWorkload, build_workload)

__all__ = [
    "FabricEndpoint", "fabric_mac",
    "EndpointSpec", "FabricRun", "build_fleet", "fleet_specs", "run_fleet",
    "SwitchedDut", "mirror_verdict", "run_mirrored_program",
    "FABRIC_SCHEMA_VERSION", "build_report", "canonical_fabric_json",
    "fabric_to_json",
    "DEFAULT_MAC_AGE", "DEFAULT_QUEUE_DEPTH", "SwitchNode", "SwitchPort",
    "WORKLOADS", "EndpointProgram", "FleetWorkload", "build_workload",
]
