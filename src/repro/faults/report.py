"""Resilience accounting: what the pipeline did to survive.

Every pipeline warm-up, and so every chaos schedule, carries a
:class:`ResilienceReport`: each job's attempts and outcome, and what the
store quarantined, recovered or evicted along the way.

A :class:`FaultRecord` is the loud half of the chaos invariant: when the
pipeline cannot heal a fault it must fail with a *classified, replayable*
record -- the layer/kind/job plus the plan seed that reproduces it.
"""

from dataclasses import dataclass, field


@dataclass
class FaultRecord:
    """One classified, replayable fault the pipeline could not absorb."""

    layer: str                  # 'run' (an injected fault) | 'job' (any other)
    kind: str                   # fault kind or exception class name
    job: str = ""               # job label (driver name) or store key
    error: str = ""             # the classified error message
    seed: int = None            # fault-plan seed, when one was installed

    def to_dict(self):
        return {"layer": self.layer, "kind": self.kind, "job": self.job,
                "error": self.error, "seed": self.seed}


@dataclass
class ResilienceReport:
    """How one campaign survived: counters and events."""

    quarantined: int = 0
    recovered_tmp: int = 0
    evicted: int = 0
    #: per-job provenance: label -> {"attempts", "outcome", "events"}
    jobs: dict = field(default_factory=dict)
    #: classified, replayable faults that survived every healing layer
    fault_records: list = field(default_factory=list)

    # ------------------------------------------------------------------

    def job_entry(self, label):
        return self.jobs.setdefault(label, {"attempts": 0,
                                            "outcome": "pending",
                                            "events": []})

    def record_attempt(self, label, event=None):
        """Count one run of job ``label`` (one per warm-up it is in)."""
        entry = self.job_entry(label)
        entry["attempts"] += 1
        if event:
            entry["events"].append(event)

    def record_outcome(self, label, outcome):
        self.job_entry(label)["outcome"] = outcome

    def record_fault(self, record):
        self.fault_records.append(record)

    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "quarantined": self.quarantined,
            "recovered_tmp": self.recovered_tmp,
            "evicted": self.evicted,
            "jobs": {label: {"attempts": entry["attempts"],
                             "outcome": entry["outcome"],
                             "events": list(entry["events"])}
                     for label, entry in sorted(self.jobs.items())},
            "fault_records": [r.to_dict() for r in self.fault_records],
        }
