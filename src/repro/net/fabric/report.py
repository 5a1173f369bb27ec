"""The fabric report: canonical, content-addressed fleet run records.

A fabric report is the complete deterministic record of one fleet run:
topology, workload identity (name + seed + content digest), switch
statistics, per-endpoint counters and fleet totals.  Volatile fields
(wall clock, throughput, scheduler mode and its cost counters) ride
along for benchmarks but are scrubbed by :func:`canonical_fabric_json` --
byte-equality of the canonical form is the fabric determinism relation:
same seed + same topology must produce identical bytes across runs and
across scheduler modes.

Reports persist in the shared :class:`~repro.pipeline.store.
ArtifactStore` under ``fabric-`` keys, content-addressed by workload +
topology + schema + code fingerprint -- the PR 3/PR 7 store discipline.
"""

import hashlib
import json

from repro.pipeline.artifact import canonical_dumps

FABRIC_SCHEMA_VERSION = 1


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
        # -- volatile (scrubbed from the canonical form) ---------------
        "wall_seconds": round(wall, 6),
        "packets_per_second": round(packets / wall, 1) if wall > 0
        else 0.0,
        "mode": run.mode,
        "scheduler": run.scheduler_counters(),
    }


def fabric_to_json(report):
    """Full-fidelity deterministic JSON (timings included)."""
    return canonical_dumps(report)


def canonical_fabric_json(report):
    """Deterministic JSON with the volatile fields scrubbed.

    Byte-equality of this form is the fabric determinism relation; the
    scheduler mode and its cost counters are volatile *by design* so the
    batched and lockstep schedulers can be byte-compared.
    """
    data = dict(report)
    data["wall_seconds"] = 0.0
    data["packets_per_second"] = 0.0
    data["mode"] = "scrubbed"
    data["scheduler"] = None
    return canonical_dumps(data)


def fabric_key(workload, topology):
    """Store key for one fleet configuration.

    Content-addressed like pipeline and fuzz keys: workload plan +
    topology + schema + code fingerprint, so reports recorded by
    different code never collide with current ones.
    """
    from repro.pipeline.store import code_fingerprint

    digest = hashlib.sha256()
    digest.update(b"fabric-schema:%d|" % FABRIC_SCHEMA_VERSION)
    digest.update(workload.to_json().encode())
    digest.update(b"|")
    digest.update(canonical_dumps(topology).encode())
    digest.update(b"|")
    digest.update(code_fingerprint().encode())
    return "fabric-%s" % digest.hexdigest()


def save_fabric_report(store, workload, report):
    """Persist ``report`` in ``store``; returns the store key."""
    key = fabric_key(workload, report["topology"])
    store.save_json(key, fabric_to_json(report))
    return key


def load_fabric_report(store, workload, topology):
    """The stored report for this configuration, or ``None``."""
    text = store.load_json(fabric_key(workload, topology))
    if text is None:
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None
