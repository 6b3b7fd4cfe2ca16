"""Sharded multi-tenant analysis service (ROADMAP: fleet-scale ingest).

Assembles the PR 2 sequenced/idempotent transport contract and the
columnar analysis engine into a service spine: an admission-controlled
ingest front (:class:`AnalysisService` / :class:`TenantPort`), a
consistent-hash :class:`ShardRouter`, and bounded-queue
:class:`ShardWorker` partitions in front of one analysis store per job
(:class:`QueryMerger`), whose answers are bit-identical to an unsharded
server.
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
