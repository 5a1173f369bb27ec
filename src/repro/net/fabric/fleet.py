"""Fleet topology construction and the fabric run loop.

Two schedulers share one switching engine:

* **batched** (the default) is event-driven: endpoints are parked until
  a traffic-program step comes due or the switch has frames for them.
  The run visits only woken endpoints, harvests and delivers frames in
  bursts (one Python-level call per burst), and advances the logical
  clock straight to the next scheduled tick -- idle endpoints and empty
  ticks cost nothing.
* **lockstep** is the polling reference: every endpoint is visited on
  every tick of every switching round, and every frame moves through a
  per-frame call.  It is the poll-count reference of the benchmark gate
  and cross-checks determinism -- both modes produce byte-identical
  canonical fabric reports.

Both schedulers process due steps in endpoint-index order, harvest in
index order, and deliver in port order, so the frame interleaving -- and
therefore every driver-visible observation -- is identical.
"""

import time
from dataclasses import dataclass

from repro.net.fabric.endpoint import FabricEndpoint, fabric_mac
from repro.net.fabric.switch import DEFAULT_QUEUE_DEPTH, SwitchNode

_MODES = ("batched", "lockstep")


@dataclass(frozen=True)
class EndpointSpec:
    """The identity of one fleet endpoint: which synthesized driver, on
    which target OS, under which execution backend."""

    index: int
    driver: str
    os_name: str
    backend: str = "compiled"

    def to_dict(self):
        return {"driver": self.driver, "os": self.os_name,
                "backend": self.backend}


def fleet_specs(count, drivers=None, os_names=None, backends=("compiled",)):
    """A deterministic driver x OS x backend mix for ``count`` endpoints.

    Cycles through every supported (driver, target OS) cell of the
    validation matrix -- expected-unsupported combinations are skipped,
    exactly as the matrix verifies them -- and through ``backends``, so
    any fleet larger than the cell count exercises every combination.
    """
    from repro.drivers import DRIVERS
    from repro.validate.matrix import EXPECTED_UNSUPPORTED, OS_ORDER

    drivers = sorted(DRIVERS) if drivers is None else list(drivers)
    os_names = list(OS_ORDER) if os_names is None else list(os_names)
    cells = [(driver, os_name)
             for os_name in os_names for driver in drivers
             if (driver, os_name) not in EXPECTED_UNSUPPORTED]
    if not cells:
        raise ValueError("no supported driver/OS cells in the request")
    return [EndpointSpec(index=i, driver=cells[i % len(cells)][0],
                         os_name=cells[i % len(cells)][1],
                         backend=backends[i % len(backends)])
            for i in range(count)]


def build_fleet(workload, orchestrator=None, specs=None, drivers=None,
                os_names=None, backends=("compiled",)):
    """Instantiate one :class:`FabricEndpoint` per workload slot.

    Artifacts come from the orchestrator (content-addressed store: warm
    fleets never recompute reverse engineering).  Endpoint ``i`` gets the
    deterministic MAC ``fabric_mac(i)`` and its ring neighbor as the
    default ``peer`` for peer-addressed vocabulary ops.
    """
    from repro.pipeline.orchestrator import PipelineOrchestrator
    from repro.validate.observe import SynthesizedDut

    count = workload.count
    if specs is None:
        specs = fleet_specs(count, drivers=drivers, os_names=os_names,
                            backends=backends)
    if len(specs) != count:
        raise ValueError("%d specs for %d workload slots"
                         % (len(specs), count))
    orchestrator = orchestrator or PipelineOrchestrator()
    artifacts = {name: orchestrator.run(name)
                 for name in sorted({spec.driver for spec in specs})}
    endpoints = []
    for spec, slot in zip(specs, workload.slots):
        dut = SynthesizedDut(artifacts[spec.driver], spec.os_name,
                             mac=fabric_mac(spec.index),
                             exec_backend=spec.backend)
        dut.peer = fabric_mac((spec.index + 1) % count)
        endpoints.append(FabricEndpoint(spec.index, dut, slot=slot,
                                        spec=spec))
    return endpoints


class FabricRun:
    """One fleet execution: endpoints, switch, scheduler and counters.

    ``polls`` / ``wakeups`` / ``rounds`` are scheduler-internal cost
    counters (they differ between modes by design -- the benchmark gate
    reads them); everything driver-visible is mode-invariant.
    """

    def __init__(self, endpoints, mode=None, queue_depth=None):
        self.endpoints = list(endpoints)
        if queue_depth is None:
            queue_depth = DEFAULT_QUEUE_DEPTH
        self.switch = SwitchNode(len(self.endpoints),
                                 queue_depth=queue_depth)
        mode = mode or "batched"
        if mode not in _MODES:
            raise ValueError("unknown fabric mode %r (have: %s)"
                             % (mode, ", ".join(_MODES)))
        self.mode = mode
        self.polls = 0
        self.wakeups = 0
        self.rounds = 0
        self.ticks = 0
        self.wall_seconds = 0.0

    def scheduler_counters(self):
        return {"polls": self.polls, "wakeups": self.wakeups,
                "rounds": self.rounds}

    # -- switching engine (shared by both modes) -----------------------

    def _cycle(self, tick, candidates):
        """Switching rounds at ``tick`` until the fabric is quiescent.

        ``candidates`` are the endpoints that may have fresh TX.  Batched
        mode visits only them (then only delivery receivers); lockstep
        polls the whole fleet every round and moves frames one at a time.
        Non-empty harvests occur for the same endpoints in the same index
        order either way, so the frame interleaving is identical.
        """
        batched = self.mode == "batched"
        endpoints = self.endpoints
        switch = self.switch
        while candidates:
            self.rounds += 1
            if batched:
                visit = [endpoints[i] for i in
                         sorted({ep.index for ep in candidates})]
            else:
                visit = endpoints
            for ep in visit:
                self.polls += 1
                frames = ep.harvest()
                if not frames:
                    continue
                if batched:
                    switch.switch_batch(ep.index, frames, now=tick)
                else:
                    for frame in frames:
                        switch.switch_batch(ep.index, [frame], now=tick)
            receivers = []
            for port in switch.ports:
                burst = switch.drain(port.index)
                if not burst:
                    continue
                ep = endpoints[port.index]
                self.polls += 1
                self.wakeups += 1
                if batched:
                    ep.deliver(burst)
                else:
                    for frame in burst:
                        ep.deliver([frame])
                receivers.append(ep)
            candidates = receivers

    # -- schedulers ----------------------------------------------------

    def run(self):
        """Boot the fleet and run the workload to quiescence."""
        started = time.perf_counter()
        for ep in self.endpoints:
            ep.boot()
        # Boot settle: a driver that transmits during initialize gets its
        # frames switched before the clock starts, in both modes.
        self._cycle(0, self.endpoints)
        if self.mode == "batched":
            self._run_batched()
        else:
            self._run_lockstep()
        self.wall_seconds = time.perf_counter() - started

    def _run_batched(self):
        agenda = {}
        for ep in self.endpoints:
            due = ep.due_tick()
            if due is not None:
                agenda.setdefault(due, []).append(ep.index)
        last = -1
        while agenda:
            tick = min(agenda)
            touched = []
            for index in sorted(agenda.pop(tick)):
                ep = self.endpoints[index]
                self.polls += 1
                if ep.run_due(tick):
                    self.wakeups += 1
                touched.append(ep)
                due = ep.due_tick()
                if due is not None:
                    agenda.setdefault(due, []).append(index)
            self._cycle(tick, touched)
            self.switch.expire(tick)
            last = tick
        self.ticks = last + 1

    def _run_lockstep(self):
        last = -1
        for ep in self.endpoints:
            final = ep.last_tick()
            if final is not None and final > last:
                last = final
        for tick in range(last + 1):
            for ep in self.endpoints:
                self.polls += 1
                if ep.run_due(tick):
                    self.wakeups += 1
            self._cycle(tick, self.endpoints)
            self.switch.expire(tick)
        self.ticks = last + 1


def run_fleet(workload, orchestrator=None, specs=None, drivers=None,
              os_names=None, backends=("compiled",), mode=None,
              queue_depth=None):
    """Build the fleet for ``workload``, run it, and return the report."""
    from repro.net.fabric.report import build_report

    endpoints = build_fleet(workload, orchestrator=orchestrator,
                            specs=specs, drivers=drivers,
                            os_names=os_names, backends=backends)
    run = FabricRun(endpoints, mode=mode, queue_depth=queue_depth)
    run.run()
    return build_report(workload, endpoints, run)
