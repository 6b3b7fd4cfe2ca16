"""Sharded multi-tenant analysis service (ROADMAP: fleet-scale ingest).

Assembles the PR 2 sequenced/idempotent transport contract and the
columnar analysis engine into a service spine: an ingest front
(:class:`AnalysisService`), a consistent-hash :class:`ShardRouter`, and
bounded-queue :class:`ShardWorker` partitions.  Each job's
:class:`TenantPort` is its §5.4 analysis server — an ``AnalysisServer``
with admission control in front — so its answers are bit-identical to an
unsharded server.  :class:`QueryMerger` is a shim the end-to-end
benchmark still imports.
"""

from repro.service.front import AnalysisService, TenantPort
from repro.service.merge import QueryMerger
from repro.service.router import ShardRouter
from repro.service.shard import ShardCostModel, ShardWorker

__all__ = [
    "AnalysisService",
    "TenantPort",
    "QueryMerger",
    "ShardRouter",
    "ShardCostModel",
    "ShardWorker",
]
