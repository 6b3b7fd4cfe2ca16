"""Shard workers: bounded, virtual-time queues in front of the tenant stores.

A :class:`ShardWorker` stores nothing.  Sub-batches arrive from the
ingest front, wait in a bounded queue, and drain through a single-server
discipline: applied in arrival order, each occupying the shard for its
processing cost on the run's virtual clock (``busy_until``).  Applying a
sub-batch ingests it into its tenant's one
:class:`~repro.runtime.server.AnalysisServer` (``port.store``), so a
query sees exactly the rows the shards have applied by then.  The
bounded queue is what admission control pushes against — a full queue
makes the front reject with a retry-after hint derived from the head
batch's projected completion.

Processing cost comes from a :class:`ShardCostModel`
(``base_us + per_row_us * rows``): a pure function of the batch, so the
service's virtual time never depends on wall time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs import NULL_OBS
from repro.runtime.records import SliceSummary


@dataclass(frozen=True, slots=True)
class ShardCostModel:
    """Virtual processing cost of applying one sub-batch on a shard."""

    base_us: float = 0.0
    per_row_us: float = 0.0

    def estimate(self, rows: int) -> float:
        return self.base_us + self.per_row_us * rows


@dataclass(slots=True)
class _QueuedBatch:
    #: the owning tenant's :class:`~repro.service.front.TenantPort`
    port: object
    rank: int
    rows: list[SliceSummary]
    enqueued_at: float


@dataclass(slots=True)
class ShardWorker:
    """One partition of the ingest load: a bounded queue with a cost model."""

    shard_id: int
    queue_limit: int = 64
    cost: ShardCostModel = field(default_factory=ShardCostModel)
    obs: object | None = None
    metrics: object | None = None

    #: virtual time the shard finishes its in-progress work
    busy_until: float = 0.0
    applied_batches: int = 0
    applied_rows: int = 0
    _queue: deque = field(default_factory=deque)

    # -- queue -------------------------------------------------------------

    def has_capacity(self, n_new: int = 1) -> bool:
        return len(self._queue) + n_new <= self.queue_limit

    def queued(self) -> int:
        return len(self._queue)

    def enqueue(self, port, rank: int, rows: list[SliceSummary], now: float) -> None:
        """Append one of ``port``'s sub-batches (admission control is the
        front's job)."""
        self._queue.append(_QueuedBatch(port, rank, rows, now))
        if self.metrics is not None:
            self.metrics.counter(f"service.shard.{self.shard_id}.enqueued").inc()

    def retry_after(self, now: float) -> float:
        """Virtual time by which at least one queue slot will have freed:
        the projected completion of the head batch.  Always strictly in
        the future so a deferred retry makes progress."""
        if not self._queue:
            return now + 1.0
        head = self._queue[0]
        start = max(self.busy_until, head.enqueued_at)
        done = start + self.cost.estimate(len(head.rows))
        return max(done, now + 1.0)

    # -- processing --------------------------------------------------------

    def process_due(self, now: float) -> int:
        """Apply queued batches whose processing completes by ``now``."""
        applied = 0
        while self._queue:
            head = self._queue[0]
            start = max(self.busy_until, head.enqueued_at)
            if start + self.cost.estimate(len(head.rows)) > now:
                break
            self._queue.popleft()
            self.busy_until = start + self._apply(head)
            applied += 1
        return applied

    def drain(self) -> int:
        """Apply everything queued, advancing the virtual clock past now."""
        applied = 0
        while self._queue:
            head = self._queue.popleft()
            start = max(self.busy_until, head.enqueued_at)
            self.busy_until = start + self._apply(head)
            applied += 1
        return applied

    def _apply(self, batch: _QueuedBatch) -> float:
        """Ingest one sub-batch into its tenant's store; return its cost."""
        tracer = (self.obs or NULL_OBS).tracer
        with tracer.span(f"service.shard.{self.shard_id}.apply") as span:
            span.set("job", batch.port.job_id)
            span.set("rank", batch.rank)
            span.set("rows", len(batch.rows))
            batch.port.store.receive_batch(batch.rank, batch.rows)
        self.applied_batches += 1
        self.applied_rows += len(batch.rows)
        if self.metrics is not None:
            self.metrics.counter(f"service.shard.{self.shard_id}.batches").inc()
            self.metrics.counter(f"service.shard.{self.shard_id}.rows").inc(len(batch.rows))
        return self.cost.estimate(len(batch.rows))
