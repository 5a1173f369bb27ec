"""Resilience accounting: what the pipeline did to survive.

Every orchestrated campaign -- a pipeline warm-up, a validation matrix, a
fuzz run, a chaos schedule -- carries a :class:`ResilienceReport`: how
many retries, timeouts, worker crashes and garbage results the supervised
pool absorbed, what the store quarantined or recovered, and which jobs
degraded from pool to serial.  Degradation (parallel -> serial, retry ->
fallback) is an explicit, observable control decision here, never a
silent ``except Exception``.

A :class:`FaultRecord` is the loud half of the chaos invariant: when the
pipeline cannot heal a fault it must fail with a *classified, replayable*
record -- the layer/kind/job plus the plan seed that reproduces it.
"""

from dataclasses import dataclass, field


@dataclass
class FaultRecord:
    """One classified, replayable fault the pipeline could not absorb."""

    layer: str                  # 'worker' | 'store' | 'run' | 'pool'
    kind: str                   # fault kind or exception class name
    job: str = ""               # job label (driver name) or store key
    error: str = ""             # the classified error message
    seed: int = None            # fault-plan seed, when one was installed
    attempts: int = 0           # attempts consumed before giving up

    def to_dict(self):
        return {"layer": self.layer, "kind": self.kind, "job": self.job,
                "error": self.error, "seed": self.seed,
                "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass
class ResilienceReport:
    """How one campaign survived: counters and events."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    garbage_results: int = 0
    run_faults: int = 0
    quarantined: int = 0
    recovered_tmp: int = 0
    evicted: int = 0
    #: explicit degradation decisions, in order: dicts with ``stage``,
    #: ``job`` and ``reason``
    degradations: list = field(default_factory=list)
    #: per-job provenance: label -> {"attempts", "outcome", "events"}
    jobs: dict = field(default_factory=dict)
    #: classified, replayable faults that survived every healing layer
    fault_records: list = field(default_factory=list)

    # ------------------------------------------------------------------

    def job_entry(self, label):
        return self.jobs.setdefault(label, {"attempts": 0,
                                            "outcome": "pending",
                                            "events": []})

    def record_attempt(self, label, attempt, event=None):
        entry = self.job_entry(label)
        entry["attempts"] = max(entry["attempts"], attempt)
        if event:
            entry["events"].append(event)
        if attempt > 1:
            self.retries += 1

    def record_outcome(self, label, outcome):
        self.job_entry(label)["outcome"] = outcome

    def record_degradation(self, stage, reason, job=""):
        self.degradations.append({"stage": stage, "job": job,
                                  "reason": reason})

    def record_fault(self, record):
        self.fault_records.append(record)

    def merge(self, other):
        """Fold ``other`` (a later stage's report) into this one."""
        for counter in ("retries", "timeouts", "worker_crashes",
                        "garbage_results", "run_faults", "quarantined",
                        "recovered_tmp", "evicted"):
            setattr(self, counter,
                    getattr(self, counter) + getattr(other, counter))
        self.degradations.extend(other.degradations)
        for label, entry in other.jobs.items():
            mine = self.job_entry(label)
            mine["attempts"] += entry["attempts"]
            mine["outcome"] = entry["outcome"]
            mine["events"].extend(entry["events"])
        self.fault_records.extend(other.fault_records)
        return self

    # ------------------------------------------------------------------

    def healed(self):
        """Did every job end healthy (no unresolved fault records)?"""
        return not self.fault_records

    def to_dict(self):
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "garbage_results": self.garbage_results,
            "run_faults": self.run_faults,
            "quarantined": self.quarantined,
            "recovered_tmp": self.recovered_tmp,
            "evicted": self.evicted,
            "degradations": list(self.degradations),
            "jobs": {label: {"attempts": entry["attempts"],
                             "outcome": entry["outcome"],
                             "events": list(entry["events"])}
                     for label, entry in sorted(self.jobs.items())},
            "fault_records": [r.to_dict() for r in self.fault_records],
        }
