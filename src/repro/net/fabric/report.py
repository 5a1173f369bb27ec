"""The fabric report: canonical fleet run records.

A fabric report is the complete deterministic record of one fleet run:
topology, workload identity (name + seed + content digest), switch
statistics, per-endpoint counters and fleet totals.  The volatile values
(wall clock, throughput, scheduler mode and its cost counters) ride
along for benchmarks under the report's top-level ``volatile`` section,
which :func:`canonical_fabric_json` drops -- byte-equality of the
canonical form is the fabric determinism relation: same seed + same
topology must produce identical bytes across runs and across scheduler
modes.  Reports are written (``examples/fabric_soak.py --out``) and
digested, never read back: a run replays from its workload and topology.
"""

from repro.pipeline.artifact import VOLATILE, canonical_dumps, stable_dumps

#: Bump on any incompatible change to the report below.  v2: the wall
#: clock, throughput, scheduler mode and scheduler counters moved under
#: the top-level ``volatile`` section.
FABRIC_SCHEMA_VERSION = 2


def build_report(workload, endpoints, run):
    """Assemble the JSON-ready report for one completed :class:`~repro.
    net.fabric.fleet.FabricRun`."""
    per_endpoint = [ep.counters() for ep in endpoints]
    per_driver = {}
    totals = {"steps": 0, "tx_frames": 0, "rx_frames": 0, "delivered": 0,
              "wire_bytes": 0, "link_drops": 0, "irq_count": 0,
              "step_errors": 0}
    for record in per_endpoint:
        driver = record.get("driver", "host")
        cell = per_driver.setdefault(
            driver, {"endpoints": 0, "tx_frames": 0, "rx_frames": 0,
                     "delivered": 0})
        cell["endpoints"] += 1
        cell["tx_frames"] += record["tx_frames"]
        cell["rx_frames"] += record["rx_frames"]
        cell["delivered"] += record.get("delivered", 0)
        totals["steps"] += record["steps"]
        totals["tx_frames"] += record["tx_frames"]
        totals["rx_frames"] += record["rx_frames"]
        totals["delivered"] += record.get("delivered", 0)
        totals["wire_bytes"] += record.get("wire_bytes", 0)
        totals["link_drops"] += record.get("link_drops", 0)
        totals["irq_count"] += record.get("irq_count", 0)
        totals["step_errors"] += len(record.get("step_errors", ()))
    switch = run.switch
    packets = switch.frames_switched
    wall = run.wall_seconds
    return {
        "schema_version": FABRIC_SCHEMA_VERSION,
        "workload": {"name": workload.name, "seed": workload.seed,
                     "count": workload.count,
                     "digest": workload.digest()},
        "topology": {"ports": len(switch.ports),
                     "queue_depth": switch.queue_depth,
                     "mac_age": switch.mac_age},
        "ticks": run.ticks,
        "switch": switch.stats(),
        "endpoints": per_endpoint,
        "per_driver": per_driver,
        "totals": totals,
        VOLATILE: {
            "wall_seconds": round(wall, 6),
            "packets_per_second": round(packets / wall, 1) if wall > 0
            else 0.0,
            "mode": run.mode,
            "scheduler": run.scheduler_counters(),
        },
    }


def fabric_to_json(report):
    """Full-fidelity deterministic JSON (timings included)."""
    return canonical_dumps(report)


def canonical_fabric_json(report):
    """Deterministic JSON without the volatile section.

    Byte-equality of this form is the fabric determinism relation; the
    scheduler mode and its cost counters are volatile *by design* so the
    batched and lockstep schedulers can be byte-compared.
    """
    return stable_dumps(report)
