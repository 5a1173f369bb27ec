"""Serialization of fuzz campaigns: replayable, canonical, storable.

A campaign serializes to versioned JSON the same way pipeline run
artifacts do: the encoding is a *canonical* function of the campaign's
outputs (sorted keys, sorted coverage, no whitespace), with the only
non-deterministic fields -- wall clock, run mode and the resilience
report -- scrubbed by :func:`canonical_fuzz_json`.  Same seed, same
config, same code ==> byte-identical canonical JSON; the determinism
tests hold the fuzzer to exactly that.

Campaign records share the pipeline's content-addressed
:class:`~repro.pipeline.store.ArtifactStore` under a ``fuzz-`` key
prefix: the key hashes the canonical config, the fuzz schema version and
the ``src/repro`` code fingerprint, so stale campaigns (different
vocabulary, different comparison semantics) read as misses, never as
replayable corpora.
"""

import hashlib
import json

from repro.errors import ArtifactError
from repro.fuzz.differential import ProgramRun
from repro.fuzz.engine import FuzzResult
from repro.pipeline.artifact import canonical_dumps

#: Bump on any incompatible change to the encoding below.
#: v2: added the ``resilience`` field (the campaign's ResilienceReport).
FUZZ_SCHEMA_VERSION = 2


def _resilience_dict(resilience):
    if resilience is None:
        return None
    if hasattr(resilience, "to_dict"):
        return resilience.to_dict()
    return dict(resilience)


def fuzz_to_dict(result):
    """Encode a :class:`FuzzResult` as a JSON-serializable dict (full
    fidelity, wall clock, mode and resilience included)."""
    return {
        "schema": FUZZ_SCHEMA_VERSION,
        "config": dict(result.config),
        "programs": list(result.programs),
        "runs": [run.to_dict() for run in result.runs],
        "coverage": sorted(result.coverage),
        "rounds": list(result.rounds),
        "summary": result.summary(),
        "stopped": result.stopped,
        "mode": result.mode,
        "wall_seconds": result.wall_seconds,
        "resilience": _resilience_dict(result.resilience),
    }


def fuzz_from_dict(data):
    """Decode a dict produced by :func:`fuzz_to_dict`."""
    try:
        schema = data["schema"]
        if schema != FUZZ_SCHEMA_VERSION:
            raise ArtifactError("fuzz artifact schema %r, expected %r"
                                % (schema, FUZZ_SCHEMA_VERSION))
        return FuzzResult(
            config=dict(data["config"]),
            programs=list(data["programs"]),
            runs=[ProgramRun.from_dict(r) for r in data["runs"]],
            coverage=set(data["coverage"]),
            rounds=list(data["rounds"]),
            wall_seconds=data["wall_seconds"],
            mode=data["mode"],
            stopped=data["stopped"],
            resilience=data.get("resilience"),
        )
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError("malformed fuzz artifact: %s" % (exc,)) from exc


def fuzz_to_json(result):
    """Full-fidelity deterministic-format JSON (timings included)."""
    return canonical_dumps(fuzz_to_dict(result))


def fuzz_from_json(text):
    return fuzz_from_dict(json.loads(text))


def canonical_fuzz_json(result):
    """Deterministic JSON with the volatile fields scrubbed.

    Byte-equality of canonical JSON is the campaign-equivalence relation:
    two runs of the same seed and config (cold or warm, faulted-but-healed
    or clean) must produce identical bytes.
    """
    data = fuzz_to_dict(result)
    data["wall_seconds"] = 0.0
    data["mode"] = "scrubbed"
    summary = dict(data["summary"])
    summary["wall_seconds"] = 0.0
    summary["mode"] = "scrubbed"
    data["summary"] = summary
    # The resilience report records *how* a run went (job attempts and
    # outcomes) -- volatile by design, so canonical equivalence scrubs it
    # entirely.
    data["resilience"] = None
    return canonical_dumps(data)


def fuzz_key(config):
    """Store key for one campaign configuration.

    Content-addressed like pipeline artifact keys: config + schema +
    code fingerprint, so campaigns recorded by different code never
    collide with (or shadow) current ones.
    """
    from repro.pipeline.store import code_fingerprint

    config_dict = config.to_dict() if hasattr(config, "to_dict") \
        else dict(config)
    digest = hashlib.sha256()
    digest.update(b"fuzz-schema:%d|" % FUZZ_SCHEMA_VERSION)
    digest.update(canonical_dumps(config_dict).encode())
    digest.update(code_fingerprint().encode())
    return "fuzz-%s" % digest.hexdigest()


def save_fuzz_result(store, result):
    """Persist ``result`` in ``store``; returns the store key."""
    key = fuzz_key(result.config)
    store.save_json(key, fuzz_to_json(result))
    return key


def load_fuzz_result(store, config):
    """The stored campaign for ``config``, or ``None``."""
    text = store.load_json(fuzz_key(config))
    if text is None:
        return None
    try:
        return fuzz_from_json(text)
    except (ArtifactError, json.JSONDecodeError):
        return None
