"""Deterministic fault-injection plane and self-healing accounting.

RevNIC's claim is that synthesized drivers survive hostile conditions;
this package holds the pipeline itself to the same bar.  Two layers of
faults, both generated from a seed the way the fuzzer generates scenario
programs (same seed ==> byte-identical fault schedule):

* **store** -- an on-disk cache entry is truncated, bit-flipped, or a
  publish is crashed mid-``os.replace`` leaving an orphaned temp file;
* **run** -- ``execute_run`` raises an induced :class:`GuestOsError` or
  solver-budget exhaustion partway through the pipeline.

:mod:`repro.faults.plan` maps seeds to fault schedules,
:mod:`repro.faults.inject` applies them, and
:mod:`repro.faults.report` collects what the pipeline did to survive
(job outcomes, quarantines, recovered temp files).
The chaos campaign -- :mod:`repro.faults.campaign`, imported explicitly
because it sits on top of :mod:`repro.pipeline` -- asserts the invariant
that matters: under any injected schedule the pipeline either produces
byte-identical artifacts to the fault-free run or fails loudly with a
classified, replayable fault record.
"""

from repro.faults.plan import (
    FaultPlan,
    FaultPlanGenerator,
    FaultSpec,
    RUN_KINDS,
    STORE_KINDS,
)
from repro.faults.report import FaultRecord, ResilienceReport

__all__ = [
    "FaultPlan",
    "FaultPlanGenerator",
    "FaultSpec",
    "FaultRecord",
    "ResilienceReport",
    "RUN_KINDS",
    "STORE_KINDS",
]
