"""Pass-manager pipeline for the static (compile-time) side of vSensor.

Public surface:

* :class:`CompilerContext` — one compilation's source, config, and results.
* :class:`PassManager` / :class:`Pass` — registration, ordering, execution.
* :class:`ArtifactStore` — content-addressed in-memory LRU cache.
* :func:`static_pass_manager` / :func:`build_static_pass_manager` — the
  seven named passes (parse, lower, cfa, dataflow, identify, select,
  instrument) wired together.
* :func:`default_store` — the process-wide store ``repro.api`` defaults to.
"""

from repro.pipeline.artifacts import (
    ArtifactStore,
    FingerprintError,
    StoreStats,
    digest,
    fingerprint,
)
from repro.pipeline.context import CompilerContext, PassTiming, PipelineProfile
from repro.pipeline.manager import Pass, PassManager, PipelineError
from repro.pipeline.passes import (
    CfaArtifact,
    SelectionArtifact,
    build_static_pass_manager,
    default_store,
    static_pass_manager,
)

__all__ = [
    "ArtifactStore",
    "CfaArtifact",
    "CompilerContext",
    "FingerprintError",
    "Pass",
    "PassManager",
    "PassTiming",
    "PipelineError",
    "PipelineProfile",
    "SelectionArtifact",
    "StoreStats",
    "build_static_pass_manager",
    "default_store",
    "digest",
    "fingerprint",
    "static_pass_manager",
]
