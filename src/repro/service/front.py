"""The multi-tenant ingest front of the sharded analysis service.

:class:`AnalysisService` assembles the pieces: a consistent-hash
:class:`~repro.service.router.ShardRouter`, N bounded-queue
:class:`~repro.service.shard.ShardWorker` partitions, and one
:class:`TenantPort` — with the job's one analysis store behind it — per
registered job.  A port duck-types the
:class:`~repro.runtime.server.AnalysisServer` surface on both sides:

* **ingest** — each job's :class:`~repro.runtime.transport.
  ReliableTransport` (or the runtime directly) calls ``receive_batch``;
  the front dedups against the job's per-rank sequence watermark, splits
  the batch into per-shard sub-batches (the tenant is the port a
  sub-batch is queued under, not a tag on its rows), and applies
  admission control: if any target shard's queue is full the whole batch
  is rejected *without consuming its sequence number*, and a retry-after
  hint (the head-of-queue projected completion) is parked for the
  transport's ``pop_retry_hint`` probe, so its exponential backoff is
  re-timed instead of burning the wire.  An accepted batch's
  sub-batches wait in the shard queues and are applied, each at its
  shard's virtual completion time, into the job's store.

* **query** — matrix / summary / inter-process queries go to that store
  through the job's :class:`~repro.service.merge.QueryMerger`; holding
  exactly the rows applied so far, it is bit-identical to an unsharded
  server fed the same rows.

Rejections never lose data: the sequence number stays unconsumed, the
transport redelivers, and watermark dedup upholds exactly-once effect —
``tests/service/test_backpressure.py`` pins all three.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.runtime.records import SliceSummary
from repro.runtime.seqtrack import SequenceTracker
from repro.runtime.server import AnalysisServer
from repro.service.merge import QueryMerger
from repro.service.router import ShardRouter
from repro.service.shard import ShardCostModel, ShardWorker


class AnalysisService:
    """N shard workers behind a consistent-hash ingest front."""

    def __init__(
        self,
        n_shards: int,
        *,
        window_us: float = 200_000.0,
        batch_period_us: float = 100_000.0,
        threshold: float = 0.7,
        engine: str = "columnar",
        queue_limit: int = 64,
        cost: ShardCostModel | None = None,
        obs: object | None = None,
    ) -> None:
        self.window_us = window_us
        self.batch_period_us = batch_period_us
        self.threshold = threshold
        self.engine = engine
        self.obs = obs
        self.metrics = obs.metrics if obs is not None else None
        self.router = ShardRouter(n_shards)
        self.cost = cost if cost is not None else ShardCostModel()
        self.shards = [
            ShardWorker(
                shard_id=i,
                queue_limit=queue_limit,
                cost=self.cost,
                obs=obs,
                metrics=self.metrics,
            )
            for i in range(n_shards)
        ]
        self.ports: dict[int, TenantPort] = {}
        #: virtual clock — the max time any port or pump has observed
        self.clock = 0.0

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    def register_job(self, job_id: int, n_ranks: int) -> "TenantPort":
        """Admit one tenant; returns its ingest/query port."""
        if job_id in self.ports:
            raise ReproError(f"job {job_id} already registered")
        port = TenantPort(self, job_id, n_ranks)
        self.ports[job_id] = port
        if self.metrics is not None:
            self.metrics.counter("service.jobs_registered").inc()
        return port

    def pump(self, now: float) -> None:
        """Advance virtual time: let every shard apply due work."""
        self.clock = max(self.clock, now)
        for shard in self.shards:
            shard.process_due(self.clock)

    def finish(self) -> None:
        """Drain every shard queue (end of run)."""
        for shard in self.shards:
            shard.drain()
            self.clock = max(self.clock, shard.busy_until)

    def describe(self) -> str:
        queued = sum(s.queued() for s in self.shards)
        return (
            f"shards={self.n_shards} jobs={len(self.ports)} "
            f"applied={sum(s.applied_batches for s in self.shards)} queued={queued}"
        )


class TenantPort:
    """One job's window onto the service (AnalysisServer duck-type)."""

    def __init__(self, service: AnalysisService, job_id: int, n_ranks: int) -> None:
        self.service = service
        self.job_id = job_id
        self.n_ranks = n_ranks
        self.window_us = service.window_us
        self.batch_period_us = service.batch_period_us
        self.bytes_received = 0
        self.batches_received = 0
        self.summaries_received = 0
        self.duplicate_batches = 0
        #: admission rejections issued to this tenant
        self.rejected_batches = 0
        self.degraded: set[int] = set()
        self._seqs: dict[int, SequenceTracker] = {}
        #: retry-after hints parked for the transport, keyed (rank, seq)
        self._retry_hints: dict[tuple[int, int], float] = {}
        self._merger = QueryMerger(self)
        #: the job's one analysis store; shard workers apply into it
        self.store = self._merger.store

    # -- ingest ------------------------------------------------------------

    def receive_batch(
        self,
        rank: int,
        summaries: list[SliceSummary],
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """Admit one rank batch; False on duplicate or back-pressure.

        A back-pressure rejection leaves the sequence number unconsumed
        (the transport's redelivery will be brand-new to the watermark)
        and parks a retry-after hint for :meth:`pop_retry_hint`.
        """
        service = self.service
        metrics = service.metrics
        self.batches_received += 1
        if encoded_bytes is None:
            encoded_bytes = 8 + SliceSummary.WIRE_BYTES * len(summaries)
        self.bytes_received += encoded_bytes
        tracker = None
        if seq is not None:
            tracker = self._seqs.setdefault(rank, SequenceTracker())
            if tracker.is_acked(seq):
                self.duplicate_batches += 1
                if metrics is not None:
                    metrics.counter("service.front.duplicates").inc()
                return False
        now = max(
            service.clock, max((s.t_slice_start for s in summaries), default=0.0)
        )
        service.clock = now
        n_rows = len(summaries)
        split = service.router.split(self.job_id, rank, summaries)
        targets = [service.shards[i] for i in split]
        for shard in targets:
            shard.process_due(now)
        if tracker is not None:
            full = [shard for shard in targets if not shard.has_capacity()]
            if full:
                retry_at = max(shard.retry_after(now) for shard in full)
                self._retry_hints[(rank, seq)] = retry_at
                self.rejected_batches += 1
                if metrics is not None:
                    metrics.counter("service.backpressure.rejected").inc()
                return False
            tracker.accept(seq)
        self.summaries_received += n_rows
        for shard_id, sub_rows in split.items():
            service.shards[shard_id].enqueue(self, rank, sub_rows, now)
        if metrics is not None:
            metrics.counter("service.front.batches").inc()
            metrics.counter("service.front.rows").inc(n_rows)
        return True

    # -- transport contract ------------------------------------------------

    def pop_retry_hint(self, rank: int, seq: int) -> float | None:
        """Retry-after of the most recent rejection of (rank, seq), once."""
        return self._retry_hints.pop((rank, seq), None)

    def is_acked(self, rank: int, seq: int) -> bool:
        tracker = self._seqs.get(rank)
        return tracker is not None and tracker.is_acked(seq)

    def ack_watermark(self, rank: int) -> int:
        tracker = self._seqs.get(rank)
        return -1 if tracker is None else tracker.watermark

    def mark_degraded(self, rank: int) -> None:
        self.degraded.add(rank)

    # -- queries (bit-identical to unsharded) ------------------------------

    @property
    def server(self) -> AnalysisServer:
        """This job's store, carrying the front's transport accounting."""
        return self._merger.refresh()

    @property
    def inter_events(self):
        return self.store.inter_events

    @property
    def duplicate_summaries(self) -> int:
        return self.store.duplicate_summaries

    @property
    def stored_summaries(self) -> int:
        return self.server.stored_summaries

    @property
    def history(self):
        return self.server.history

    def detect_inter_process(self, min_ranks: int = 2):
        return self.server.detect_inter_process(min_ranks)

    def performance_matrix(self, sensor_type):
        return self.server.performance_matrix(sensor_type)

    def mean_rank_performance(self, sensor_type):
        return self.server.mean_rank_performance(sensor_type)

    def silent_ranks(self, now: float, staleness_us: float | None = None) -> list[int]:
        return self.server.silent_ranks(now, staleness_us)
