"""The multi-tenant ingest front of the sharded analysis service.

:class:`AnalysisService` assembles the pieces: a consistent-hash
:class:`~repro.service.router.ShardRouter`, N bounded-queue
:class:`~repro.service.shard.ShardWorker` partitions, and one
:class:`TenantPort` per registered job.  A port *is* the job's §5.4
analysis server — an :class:`~repro.runtime.server.AnalysisServer` with
the service's admission gate in front of its store:

* **ingest** — each job's :class:`~repro.runtime.transport.
  ReliableTransport` (or the runtime, or a spool drain) calls
  ``receive_batch``; the port dedups against its per-rank sequence
  watermark, splits the batch into per-shard sub-batches (the tenant is
  the port a sub-batch is queued under, not a tag on its rows), and
  applies admission control: if any target shard's queue is full the
  whole batch is rejected *without consuming its sequence number*, and a
  retry-after hint (the head-of-queue projected completion) is parked for
  the transport's ``pop_retry_hint`` probe, so its exponential backoff is
  re-timed instead of burning the wire.  An accepted batch's sub-batches
  wait in the shard queues, and each shard folds its rows into the port's
  store (:meth:`TenantPort.apply`) at its virtual completion time.

* **query** — matrices, summaries and inter-process verdicts are the
  inherited server queries over that one store; holding exactly the rows
  applied so far, it answers bit-identically to an unsharded server fed
  the same rows.  Byte, batch and duplicate accounting and the degraded
  set are the server's own fields, counted once, per received batch.

Rejections never lose data: the sequence number stays unconsumed, the
transport redelivers, and watermark dedup upholds exactly-once effect —
``tests/service/test_backpressure.py`` pins all three.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import ReproError
from repro.runtime.records import SliceSummary, SummaryColumns
from repro.runtime.server import AnalysisServer
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
        engine: str = "columnar",
        queue_limit: int = 64,
        cost: ShardCostModel | None = None,
        obs: object | None = None,
    ) -> None:
        self.window_us = window_us
        self.batch_period_us = batch_period_us
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
            shard.process_due(math.inf)
            self.clock = max(self.clock, shard.busy_until)

    def describe(self) -> str:
        queued = sum(s.queued() for s in self.shards)
        return (
            f"shards={self.n_shards} jobs={len(self.ports)} "
            f"applied={sum(s.applied_batches for s in self.shards)} queued={queued}"
        )


class TenantPort(AnalysisServer):
    """One job's analysis server, with the service's admission gate in front."""

    __slots__ = ("service", "job_id", "rejected_batches", "_retry_hints")

    def __init__(self, service: AnalysisService, job_id: int, n_ranks: int) -> None:
        # No metrics or obs on the server: the service counts its own ingest.
        super().__init__(
            n_ranks=n_ranks,
            window_us=service.window_us,
            batch_period_us=service.batch_period_us,
            engine=service.engine,
        )
        self.service = service
        self.job_id = job_id
        #: admission rejections issued to this tenant
        self.rejected_batches = 0
        #: retry-after hints parked for the transport, keyed (rank, seq)
        self._retry_hints: dict[tuple[int, int], float] = {}

    def receive_batch(
        self,
        rank: int,
        summaries: Sequence[SliceSummary] | SummaryColumns,
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """Admit one rank batch; False on duplicate or back-pressure.

        A back-pressure rejection counts the arrival but leaves the
        sequence number unconsumed (the transport's redelivery will be
        brand-new to the watermark) and parks a retry-after hint for
        :meth:`pop_retry_hint`.
        """
        service = self.service
        metrics = service.metrics
        n_rows = len(summaries)
        if seq is not None and self.is_acked(rank, seq):
            self._admit(rank, n_rows, seq, encoded_bytes)  # counts the duplicate
            if metrics is not None:
                metrics.counter("service.front.duplicates").inc()
            return False
        now = max(
            service.clock, max((s.t_slice_start for s in summaries), default=0.0)
        )
        service.clock = now
        split = service.router.split(self.job_id, rank, summaries)
        targets = [service.shards[i] for i in split]
        for shard in targets:
            shard.process_due(now)
        if seq is not None:
            full = [shard for shard in targets if not shard.has_capacity()]
            if full:
                self._count_arrival(n_rows, encoded_bytes)
                self._retry_hints[(rank, seq)] = max(shard.retry_after(now) for shard in full)
                self.rejected_batches += 1
                if metrics is not None:
                    metrics.counter("service.backpressure.rejected").inc()
                return False
        self._admit(rank, n_rows, seq, encoded_bytes)
        for shard_id, sub_rows in split.items():
            service.shards[shard_id].enqueue(self, rank, sub_rows, now)
        if metrics is not None:
            metrics.counter("service.front.batches").inc()
            metrics.counter("service.front.rows").inc(n_rows)
        return True

    #: a spool drain's decoded batches go through admission and the shards
    receive_batch_columns = receive_batch

    def apply(self, rank: int, rows: list[SliceSummary]) -> None:
        """Fold one shard's sub-batch of ``rank``'s rows into the store."""
        self._rows.ingest_summaries(rows)

    def pop_retry_hint(self, rank: int, seq: int) -> float | None:
        """Retry-after of the most recent rejection of (rank, seq), once."""
        return self._retry_hints.pop((rank, seq), None)
