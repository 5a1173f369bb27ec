"""Resilience accounting: what the pipeline did to survive.

Every pipeline warm-up, and so every chaos schedule, carries a
:class:`ResilienceReport`: which drivers it computed, and what the store
quarantined or recovered along the way.

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
    """How one warm-up survived: counters and fault records."""

    quarantined: int = 0
    recovered_tmp: int = 0
    #: drivers whose pipeline ran, in the order they ran (a failing one
    #: last); drivers loaded from the store are absent
    computed: list = field(default_factory=list)
    #: classified, replayable faults that survived every healing layer
    fault_records: list = field(default_factory=list)

    def record_fault(self, record):
        self.fault_records.append(record)

    def to_dict(self):
        return {
            "quarantined": self.quarantined,
            "recovered_tmp": self.recovered_tmp,
            "computed": list(self.computed),
            "fault_records": [r.to_dict() for r in self.fault_records],
        }
