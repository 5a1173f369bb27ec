"""Evaluation harness reproducing every table and figure of the paper.

Each ``table*``/``fig*`` module exposes a ``compute()`` returning structured
data and a ``render()`` printing the same rows/series the paper reports.
The expensive pipeline stages (RevNIC runs, synthesis) are shared through
:mod:`repro.pipeline`: every experiment consumes serializable
:class:`~repro.pipeline.artifact.RunArtifact` objects from the process-wide
orchestrator, which computes each cold run at most once and caches
artifacts on disk between sessions.
"""

from repro.eval.runner import PipelineOrchestrator, get_cache

__all__ = ["PipelineOrchestrator", "get_cache"]
