"""Differential scenario fuzzing and soak testing.

PR 4's validation matrix checks functional equivalence on 11 hand-written
deterministic scenarios -- a fixed slice of an enormous input space.
This package turns the matrix into a *sampled view of a randomized
scenario space*:

* :mod:`repro.fuzz.generate` -- seeded generation of replayable
  :class:`~repro.net.traffic.ScenarioProgram` workloads over the traffic
  vocabulary (bursts, runts, oversize/bad-FCS frames, link flaps, OID
  queries, resets, interleaved bidirectional traffic);
* :mod:`repro.fuzz.differential` -- runs each program through the
  validation matrix's one column runner,
  :func:`repro.validate.matrix.run_column` (the original binary once,
  then every synthesized target-OS driver, classified by the shared
  :mod:`repro.validate.differ` semantics), as :class:`ProgramRun` records;
* :mod:`repro.fuzz.engine` -- the loop-until-dry campaign driver:
  rounds of programs run one driver column at a time, stopping
  after N consecutive rounds with zero new coverage and zero new
  divergences;
* :mod:`repro.fuzz.artifact` -- canonical, versioned campaign
  serialization (same seed + config + code ==> byte-identical JSON);
* :mod:`repro.fuzz.soak` -- sustained saturation workloads per driver x
  execution backend, counting packets moved and divergence-free steps.

Hypothesis strategies over the same vocabulary are test-only and live in
``tests/fuzz_strategies.py``.

See the "Fuzzing & soak" section of ``docs/validation.md``.
"""

from repro.fuzz.artifact import (FUZZ_SCHEMA_VERSION, canonical_fuzz_json,
                                 fuzz_to_dict, fuzz_to_json)
from repro.fuzz.differential import (ProgramRun, replay_program,
                                     run_program_column)
from repro.fuzz.engine import (FuzzConfig, FuzzEngine, FuzzResult,
                               observation_features, program_features,
                               run_fuzz)
from repro.fuzz.generate import ProgramGenerator
from repro.fuzz.soak import (SoakRecord, run_soak, saturation_program,
                             soak_cell)

__all__ = [
    "FUZZ_SCHEMA_VERSION",
    "canonical_fuzz_json",
    "fuzz_to_dict",
    "fuzz_to_json",
    "ProgramRun",
    "replay_program",
    "run_program_column",
    "FuzzConfig",
    "FuzzEngine",
    "FuzzResult",
    "observation_features",
    "program_features",
    "run_fuzz",
    "ProgramGenerator",
    "SoakRecord",
    "run_soak",
    "saturation_program",
    "soak_cell",
]
