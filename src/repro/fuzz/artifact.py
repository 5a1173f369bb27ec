"""Serialization of fuzz campaigns: replayable and canonical.

A campaign serializes to versioned JSON the same way pipeline run
artifacts do: the encoding is a *canonical* function of the campaign's
outputs (sorted keys, sorted coverage, no whitespace), with the one
non-deterministic value -- the wall clock -- under the document's
top-level ``volatile`` section, which :func:`canonical_fuzz_json` drops.
Same seed, same config, same code ==> byte-identical canonical JSON; the
determinism tests hold the fuzzer to exactly that.  Campaigns are
written (``examples/fuzz_run.py --out``) and digested, never read
back: a campaign replays from its seed and config, and a divergent run
from the program its record carries.
"""

from repro.pipeline.artifact import VOLATILE, canonical_dumps, stable_dumps

#: Bump on any incompatible change to the encoding below.
#: v2: added the ``resilience`` field (the campaign's ResilienceReport).
#: v3: dropped ``mode`` and ``resilience``; ``wall_seconds`` moved under
#: the top-level ``volatile`` section (and out of ``summary``).
FUZZ_SCHEMA_VERSION = 3


def fuzz_to_dict(result):
    """Encode a :class:`FuzzResult` as a JSON-serializable dict (full
    fidelity, wall clock under :data:`~repro.pipeline.artifact.VOLATILE`)."""
    summary = result.summary()
    del summary["wall_seconds"]
    return {
        "schema": FUZZ_SCHEMA_VERSION,
        "config": dict(result.config),
        "programs": list(result.programs),
        "runs": [run.to_dict() for run in result.runs],
        "coverage": sorted(result.coverage),
        "rounds": list(result.rounds),
        "summary": summary,
        "stopped": result.stopped,
        VOLATILE: {"wall_seconds": result.wall_seconds},
    }


def fuzz_to_json(result):
    """Full-fidelity deterministic-format JSON (timings included)."""
    return canonical_dumps(fuzz_to_dict(result))


def canonical_fuzz_json(result):
    """Deterministic JSON without the wall clock.

    Byte-equality of canonical JSON is the campaign-equivalence relation:
    two runs of the same seed and config (cold or warm, faulted-but-healed
    or clean) must produce identical bytes.
    """
    return stable_dumps(fuzz_to_dict(result))
