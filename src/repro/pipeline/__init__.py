"""Artifact-based pipeline orchestration.

The split this package implements mirrors MetaSys/SFIP (PAPERS.md): an
expensive offline producer -- one RevNIC symbolic-execution run plus
synthesis per driver -- hands a compact, serializable
:class:`~repro.pipeline.artifact.RunArtifact` to its many cheap consumers
(tables, figures, performance model, functional tests).  Three layers:

* :mod:`repro.pipeline.artifact` -- the versioned JSON codec for run
  artifacts (shared translation blocks and expression DAGs interned into
  tables; canonical byte-deterministic encoding);
* :mod:`repro.pipeline.store` -- the content-addressed on-disk cache
  (keyed by driver image, config, schema and a source-tree fingerprint;
  checksummed entries, quarantine, crash-consistent publish, GC);
* :mod:`repro.pipeline.orchestrator` -- the orchestration layer that
  computes each missing artifact at most once, in process, one driver
  after another.
"""

from repro.pipeline.artifact import (
    RunArtifact,
    SCHEMA_VERSION,
    build_artifact,
    canonical_json,
    from_json,
    to_json,
)
from repro.pipeline.orchestrator import (
    PipelineOrchestrator,
    build_config,
    execute_run,
    get_orchestrator,
)
from repro.pipeline.store import (
    ArtifactStore,
    artifact_key,
    code_fingerprint,
    default_store,
)

__all__ = [
    "RunArtifact",
    "SCHEMA_VERSION",
    "build_artifact",
    "canonical_json",
    "from_json",
    "to_json",
    "PipelineOrchestrator",
    "build_config",
    "execute_run",
    "get_orchestrator",
    "ArtifactStore",
    "artifact_key",
    "code_fingerprint",
    "default_store",
]
