"""The one analysis store of a tenant, and the view queries get of it.

Shard-local *results* are not mergeable: the per-(sensor, group) history
normalization is a cumulative minimum over all ranks' durations in
canonical slice order, a job's sensors spread across shards, and the
per-cell matrix means mix sensors again — any distributive merge of
per-shard matrices would diverge from the unsharded server in the last
bits.  So there are no shard-local stores to merge: each job has exactly
one :class:`~repro.runtime.server.AnalysisServer`, the §5.4 analysis
server of that job, and every shard worker applies the job's sub-batches
straight into it.  Ingest there is order-invariant and
identity-deduplicated, so whatever order the shards' queues release the
sub-batches in, the store holds exactly the job's deduplicated rows and
every query is bit-identical to an unsharded server by construction.
The differential suite in ``tests/service/test_shard_equiv.py`` pins
that equivalence under random shard counts, interleavings, redelivery
and queries between applies.
"""

from __future__ import annotations

from repro.runtime.server import AnalysisServer


class QueryMerger:
    """Owns one tenant's store; :meth:`refresh` is the query-side view."""

    def __init__(self, port) -> None:
        self.port = port
        service = port.service
        # Quiet: the service layer owns observability, the store holds rows.
        self.store = AnalysisServer(
            n_ranks=port.n_ranks,
            window_us=service.window_us,
            batch_period_us=service.batch_period_us,
            threshold=service.threshold,
            engine=service.engine,
        )

    def refresh(self) -> AnalysisServer:
        """The job's store, holding every row the shards have applied.

        Its transport-facing counters are overwritten with the front's
        authoritative per-job accounting (the store's own tallies count
        sub-batches, which is internal plumbing, not received traffic)
        and its degraded set mirrors the port's.
        """
        port = self.port
        store = self.store
        store.degraded = set(port.degraded)
        store.bytes_received = port.bytes_received
        store.batches_received = port.batches_received
        store.summaries_received = port.summaries_received
        store.duplicate_batches = port.duplicate_batches
        return store
