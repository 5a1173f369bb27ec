"""Shared pipeline runs for the evaluation.

Thin front over :mod:`repro.pipeline`: ``get_cache()`` hands every
experiment the process-wide
:class:`~repro.pipeline.orchestrator.PipelineOrchestrator`, whose
``run(name)`` returns the serializable
:class:`~repro.pipeline.artifact.RunArtifact` for one driver -- loaded
from memory, from the content-addressed on-disk store, or computed in
process.  Consumers never see a live
RevNIC engine; tables, figures, the perf model, the validation matrix
and the functional tests all read artifacts.
"""

from repro.pipeline.orchestrator import (PipelineOrchestrator,
                                         get_orchestrator)

MAC = b"\x52\x54\x00\xAA\xBB\xCC"


def get_cache():
    """The process-wide pipeline orchestrator."""
    return get_orchestrator()


__all__ = ["MAC", "PipelineOrchestrator", "get_cache"]
