"""Cross-OS differential validation of synthesized drivers.

The paper's functional-equivalence claim (section 5.2) is checked here as
a systematic matrix: every synthesized driver x every target OS x a
catalog of deterministic workloads, each compared observation-for-
observation against the original binary running on the source OS.  Four
layers:

* :mod:`repro.validate.observe` -- the :class:`DriverUnderTest` facade
  that gives both sides one operation vocabulary, and the
  :class:`Observation` snapshot of externally visible behavior;
* :mod:`repro.validate.scenarios` -- the workload catalog, one
  :class:`~repro.net.traffic.ScenarioProgram` per scenario (UDP streams,
  bidirectional bursts, runt/oversize/bad-FCS frames, RX-ring overflow,
  filter mixes, link flaps, control plane);
* :mod:`repro.validate.differ` -- field-by-field divergence semantics
  plus the shared match / unsupported / divergent verdict rule (the
  matrix and the scenario fuzzer classify identically);
* :mod:`repro.validate.matrix` -- the matrix runner: driver columns one
  after another, artifacts served from the on-disk store, cells
  classified equivalent / unsupported / divergent against per-cell
  expectations; its ``run_column`` is the one differential column
  runner, shared with the scenario fuzzer and the soak.

See ``docs/validation.md`` for the catalog, the divergence semantics and
how to extend either.
"""

from repro.validate.differ import (COMPARED_FIELDS, DifferentialVerdict,
                                   Divergence, classify_observations,
                                   compare_observations)
from repro.validate.matrix import (EXPECTED_UNSUPPORTED, OS_ORDER,
                                   CellResult, MatrixResult, ScenarioResult,
                                   ValidationMatrix, compute_column,
                                   expected_status, run_matrix)
from repro.validate.observe import (PEER_MAC, VALIDATION_MAC,
                                    DriverUnderTest, Observation,
                                    OriginalDut, SynthesizedDut)
from repro.validate.scenarios import CATALOG, SCENARIOS, run_scenario

__all__ = [
    "COMPARED_FIELDS",
    "DifferentialVerdict",
    "Divergence",
    "classify_observations",
    "compare_observations",
    "EXPECTED_UNSUPPORTED",
    "OS_ORDER",
    "CellResult",
    "MatrixResult",
    "ScenarioResult",
    "ValidationMatrix",
    "compute_column",
    "expected_status",
    "run_matrix",
    "PEER_MAC",
    "VALIDATION_MAC",
    "DriverUnderTest",
    "Observation",
    "OriginalDut",
    "SynthesizedDut",
    "CATALOG",
    "SCENARIOS",
    "run_scenario",
]
