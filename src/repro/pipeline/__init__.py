"""The static (compile-time) side of vSensor as four passes in one order.

Public surface:

* :data:`PASSES` / :class:`Pass` — parse, identify, select, instrument,
  each with its inputs and cache-relevant config keys.
* :func:`run_passes` — runs the tuple for one compile and returns the
  artifacts plus its :class:`PipelineProfile` (per-pass time, cache hits).
* :class:`ArtifactStore` — content-addressed in-memory LRU cache.
* :func:`default_store` — the process-wide store ``repro.api`` defaults to.
"""

from repro.pipeline.artifacts import (
    ArtifactStore,
    FingerprintError,
    digest,
    fingerprint,
)
from repro.pipeline.passes import (
    PASSES,
    Pass,
    SelectionArtifact,
    default_store,
    run_passes,
)
from repro.pipeline.profile import PassTiming, PipelineProfile

__all__ = [
    "PASSES",
    "ArtifactStore",
    "FingerprintError",
    "Pass",
    "PassTiming",
    "PipelineProfile",
    "SelectionArtifact",
    "default_store",
    "digest",
    "fingerprint",
    "run_passes",
]
