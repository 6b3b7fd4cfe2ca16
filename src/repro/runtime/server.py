"""The analysis server: inter-process detection and matrices (§5.4–§5.5).

A dedicated process collects slice summaries from every rank.  To stay
network-friendly, each rank buffers summaries locally and ships them in
periodic batches; the server accounts the bytes it receives (the §6.4 data
volume comparison against tracing).  The server

* merges same-type sensors into per-component performance series (§5.2),
* compares the same sensor across ranks per time window (inter-process
  detection), and
* maintains the process x time performance matrix per component that the
  visualizer renders (§5.5).

Delivery hardening: batches may arrive over an unreliable transport
(:mod:`repro.runtime.channel`), so ingestion is **idempotent** and
**order-invariant**.  Sequence-numbered batches are deduplicated against a
per-rank watermark (at-least-once delivery upstream, exactly-once effect
here), and every accepted summary is keyed by its identity ``(rank,
sensor, group, slice)`` rather than folded into running aggregates.  The
matrices and inter-process verdicts are computed by replaying the keyed
store in canonical slice order, which makes them bit-identical under any
permutation or redelivery of the incoming batches.

This module is the *endpoint*: byte and batch accounting, the sequence
watermarks, degraded-rank marking, and the §5.4 / §5.5 queries phrased
over one store interface.  The sharded service's
:class:`~repro.service.front.TenantPort` is this class with the service's
admission gate in front.  ``engine=`` picks the store class:

* ``"columnar"`` (default) — :class:`~repro.runtime.columnar.ColumnarStore`,
  NumPy columns, incremental canonical replay, vectorized kernels;
* ``"reference"`` — :class:`~repro.runtime.reference.ReferenceStore`, the
  object-at-a-time dict store with a full pure-Python replay: the oracle.

The two are bit-identical — matrices, events, counters, byte accounting —
under any delivery schedule (``tests/runtime/test_server_columnar.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.runtime.columnar import ColumnarStore
from repro.runtime.history import SensorHistory
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
from repro.runtime.reference import ReferenceStore
from repro.runtime.seqtrack import SequenceTracker
from repro.sensors.model import SensorType


@dataclass(frozen=True, slots=True)
class InterProcessEvent:
    """Some ranks run a sensor significantly slower than the best rank."""

    sensor_id: int
    sensor_type: SensorType
    window_index: int
    t_window_start: float
    slow_ranks: tuple[int, ...]
    #: normalized performance of the slowest flagged rank
    worst_performance: float
    #: fraction of ranks that contributed data to this (sensor, window)
    #: cell — below 1.0 the verdict rests on partial telemetry (dropped
    #: batches, degraded ranks), so treat it with less confidence
    coverage: float = 1.0


_STORES = {"columnar": ColumnarStore, "reference": ReferenceStore}


@dataclass(slots=True)
class AnalysisServer:
    n_ranks: int
    #: matrix time resolution (µs); the paper's Fig. 14 uses 200 ms
    window_us: float = 200_000.0
    #: batching period per rank (µs)
    batch_period_us: float = 100_000.0
    threshold: float = 0.7
    #: analysis engine: "columnar" (vectorized store + incremental replay)
    #: or "reference" (object-at-a-time dict store, the oracle)
    engine: str = "columnar"

    bytes_received: int = 0
    batches_received: int = 0
    summaries_received: int = 0
    #: redelivered batches rejected by the sequence watermark
    duplicate_batches: int = 0
    inter_events: list[InterProcessEvent] = field(default_factory=list)
    #: ranks whose transport gave up on them (quiet spool, exhausted
    #: retries); matrices still render, reports carry the marker
    degraded: set[int] = field(default_factory=set)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for ingest
    #: counters; ``None`` keeps ingestion at one extra branch
    metrics: object | None = None
    #: optional :class:`~repro.obs.Obs` bundle for per-epoch replay spans
    obs: object | None = None

    #: per-rank sequence trackers (cumulative watermark + gap set)
    _seqs: dict[int, SequenceTracker] = field(default_factory=dict)
    #: the identity-keyed summary store ``engine`` selected
    _rows: ColumnarStore | ReferenceStore = None  # type: ignore[assignment]
    _duplicate_summaries: int = 0

    def __post_init__(self) -> None:
        store_class = _STORES.get(self.engine)
        if store_class is None:
            raise ValueError(
                f"unknown analysis engine {self.engine!r} (expected 'columnar' or 'reference')"
            )
        self._rows = store_class(self.window_us, self.n_ranks)

    # -- ingestion ----------------------------------------------------------

    def receive_batch(
        self,
        rank: int,
        summaries: Sequence[SliceSummary] | SummaryColumns,
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """One batched transfer from a rank's local buffer — a row list, a
        detector's :class:`~repro.runtime.records.SummaryView` or decoded
        columns — which the store may hold by reference until the next read.

        ``seq`` is the rank's batch sequence number when the batch came over
        a sequenced transport; redelivered sequence numbers are counted and
        dropped (idempotent ingest).  ``encoded_bytes`` is the actual wire
        size when the batch arrived through the codec (frame headers and
        group-definition frames included); direct in-process handoffs leave
        it ``None`` and are accounted at the nominal header + payload size.
        Returns True iff the batch was new, i.e. its sequence number was
        consumed — the ack the reliable transport acts on.
        """
        if not self._admit(rank, len(summaries), seq, encoded_bytes):
            return False
        self._rows.ingest_summaries(summaries)
        return True

    #: the name the spool drain calls with its zero-copy decoded batches
    receive_batch_columns = receive_batch

    def _admit(
        self, rank: int, n_rows: int, seq: int | None, encoded_bytes: int | None
    ) -> bool:
        """Account one arriving batch; False for a redelivered ``seq``."""
        self._count_arrival(n_rows, encoded_bytes)
        if seq is not None and not self._advance_watermark(rank, seq):
            self.duplicate_batches += 1
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_batches").inc()
            return False
        self.summaries_received += n_rows
        if self.metrics is not None:
            self.metrics.counter("server.batches").inc()
            self.metrics.counter("server.summaries").inc(n_rows)
        return True

    def _count_arrival(self, n_rows: int, encoded_bytes: int | None) -> None:
        """Count one arriving batch and its wire bytes, accepted or not."""
        self.batches_received += 1
        if encoded_bytes is None:
            encoded_bytes = 8 + SliceSummary.WIRE_BYTES * n_rows
        self.bytes_received += encoded_bytes

    def _advance_watermark(self, rank: int, seq: int) -> bool:
        """Record one received sequence number; False if already seen."""
        tracker = self._seqs.get(rank)
        if tracker is None:
            tracker = self._seqs[rank] = SequenceTracker()
        return tracker.accept(seq)

    def is_acked(self, rank: int, seq: int) -> bool:
        tracker = self._seqs.get(rank)
        return tracker is not None and tracker.is_acked(seq)

    def _settled(self) -> ColumnarStore | ReferenceStore:
        """The store with every admitted batch folded in and its identity
        duplicates counted — what each answer about the rows reads.  A row
        naming a rank outside ``0..n_ranks-1`` raises ``ReproError`` here,
        at the first read of its epoch, on either engine."""
        store = self._rows
        duplicates = store.settle()
        if duplicates:
            self._duplicate_summaries += duplicates
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_summaries").inc(duplicates)
        return store

    @property
    def stored_summaries(self) -> int:
        """Deduplicated summaries currently in the store (either engine)."""
        return len(self._settled())

    @property
    def duplicate_summaries(self) -> int:
        """Summaries whose identity key was already in the store."""
        self._settled()
        return self._duplicate_summaries

    # -- degradation / coverage --------------------------------------------

    def mark_degraded(self, rank: int) -> None:
        self.degraded.add(rank)

    def silent_ranks(self, now: float, staleness_us: float | None = None) -> list[int]:
        """Ranks whose freshest data is older than ``staleness_us`` —
        candidates for degraded marking when their spool goes quiet."""
        if staleness_us is None:
            staleness_us = 4.0 * self.batch_period_us
        last_seen = self._settled().last_seen()
        out = []
        for rank in range(self.n_ranks):
            last = last_seen.get(rank)
            if last is None or now - last > staleness_us:
                out.append(rank)
        return out

    # -- canonical replay ---------------------------------------------------

    def _replayed(self) -> ColumnarStore | ReferenceStore:
        """The store with its canonical order up to date.

        Emits a ``server.replay`` span (kind + rows attrs) and bumps the
        ``server.replay.{full,incremental}`` counter — only when the store
        reports pending rows, so pure queries stay silent.
        """
        store = self._settled()
        if not store.pending():
            return store
        if self.obs is not None:
            with self.obs.tracer.span("server.replay") as span:
                kind, rows = store.replay()
                span.set("kind", kind)
                span.set("rows", rows)
        else:
            kind, _ = store.replay()
        if self.metrics is not None:
            self.metrics.counter(f"server.replay.{kind}").inc()
        return store

    @property
    def history(self) -> SensorHistory:
        """Cross-rank standard times, as replayed from the current store."""
        return SensorHistory.from_standards(self._replayed().history_standards())

    # -- inter-process analysis (§5.4) --------------------------------------

    def detect_inter_process(self, min_ranks: int = 2) -> list[InterProcessEvent]:
        """Compare the same v-sensor across ranks within each window."""
        self.inter_events = []
        store = self._replayed()
        sensor_types = store.sensor_types()
        for sensor_id, window, ranks, durations in store.inter_blocks():
            if len(ranks) < min_ranks:
                continue
            best = durations.min()
            if best <= 0:
                continue
            perf = best / durations
            slow_mask = perf < self.threshold
            if not slow_mask.any():
                continue
            self.inter_events.append(
                InterProcessEvent(
                    sensor_id=sensor_id,
                    sensor_type=sensor_types[sensor_id],
                    window_index=window,
                    t_window_start=window * self.window_us,
                    slow_ranks=tuple(int(r) for r in ranks[slow_mask]),
                    worst_performance=float(perf.min()),
                    coverage=len(ranks) / self.n_ranks if self.n_ranks else 1.0,
                )
            )
        return self.inter_events

    # -- matrices (§5.5) -------------------------------------------------------

    def performance_matrix(self, sensor_type: SensorType) -> np.ndarray:
        """(n_ranks, n_windows) matrix of normalized performance.

        Cells without data are NaN; the visualizer paints them neutrally.
        Degraded ranks simply keep their NaN cells — partial telemetry
        must never crash matrix rendering.
        """
        store = self._replayed()
        return store.matrix(SENSOR_TYPE_CODE[sensor_type], self.n_ranks, store.max_window() + 1)

    def mean_rank_performance(self, sensor_type: SensorType) -> np.ndarray:
        """Per-rank mean normalized performance (persistent-fault signal)."""
        matrix = self.performance_matrix(sensor_type)
        # Ranks without any data stay NaN; nanmean would warn on their rows.
        means = np.full(matrix.shape[0], np.nan)
        has_data = ~np.isnan(matrix).all(axis=1)
        if has_data.any():
            means[has_data] = np.nanmean(matrix[has_data], axis=1)
        return means
