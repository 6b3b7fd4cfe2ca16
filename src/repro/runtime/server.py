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

Two analysis engines share those semantics:

* ``engine="columnar"`` (default) keeps the store as append-only NumPy
  columns (:mod:`repro.runtime.columnar`) with incremental canonical
  replay and vectorized matrix / inter-process kernels;
* ``engine="reference"`` is the original object-at-a-time dict store and
  pure-Python full replay, kept as the differential-testing oracle.

The two are bit-identical — same matrices, events, counters and byte
accounting — under any delivery schedule; ``tests/runtime/
test_server_columnar.py`` pins that with hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.columnar import ColumnarStore
from repro.runtime.history import SensorHistory
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
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


@dataclass(slots=True)
class _Analysis:
    """Derived state replayed from the summary store (cached per epoch)."""

    #: (type, window) -> rank -> [normalized perf per slice]
    cells: dict[tuple[SensorType, int], dict[int, list[float]]] = field(default_factory=dict)
    #: (sensor, window) -> rank -> mean duration of the rank's slices
    per_sensor: dict[tuple[int, int], dict[int, float]] = field(default_factory=dict)
    history: SensorHistory = field(default_factory=SensorHistory)


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
    #: summaries whose identity key was already in the store
    duplicate_summaries: int = 0
    inter_events: list[InterProcessEvent] = field(default_factory=list)
    #: ranks whose transport gave up on them (quiet spool, exhausted
    #: retries); matrices still render, reports carry the marker
    degraded: set[int] = field(default_factory=set)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for ingest
    #: counters; ``None`` keeps ingestion at one extra branch
    metrics: object | None = None
    #: optional :class:`~repro.obs.Obs` bundle for per-epoch replay spans
    obs: object | None = None

    #: identity-keyed summary store: (rank, sensor, group, slice) -> summary
    #: (reference engine only; the columnar engine stores rows in _columns)
    _store: dict[tuple[int, int, str, int], SliceSummary] = field(default_factory=dict)
    #: per-rank sequence trackers (cumulative watermark + gap set)
    _seqs: dict[int, SequenceTracker] = field(default_factory=dict)
    _max_window: int = 0
    _sensor_types: dict[int, SensorType] = field(default_factory=dict)
    #: virtual time of the freshest slice each rank has reported
    _last_seen: dict[int, float] = field(default_factory=dict)
    _analysis: _Analysis | None = None
    _columns: ColumnarStore | None = None

    def __post_init__(self) -> None:
        if self.engine == "columnar":
            self._columns = ColumnarStore(self.window_us)
        elif self.engine != "reference":
            raise ValueError(
                f"unknown analysis engine {self.engine!r} (expected 'columnar' or 'reference')"
            )

    # -- ingestion ----------------------------------------------------------

    def receive_batch(
        self,
        rank: int,
        summaries: list[SliceSummary],
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """One batched transfer from a rank's local buffer.

        ``seq`` is the rank's batch sequence number when the batch came over
        a sequenced transport; redelivered sequence numbers are counted and
        dropped (idempotent ingest).  ``encoded_bytes`` is the actual wire
        size when the batch arrived through the codec (frame headers and
        group-definition frames included); direct in-process handoffs leave
        it ``None`` and are accounted at the nominal header + payload size.
        Returns True iff the batch was new.
        """
        if not self._admit(rank, len(summaries), seq, encoded_bytes):
            return False
        if self._columns is not None:
            duplicates, max_window = self._columns.ingest_summaries(
                summaries, self._sensor_types, self._last_seen
            )
            self._note_ingest(duplicates, max_window)
        else:
            for summary in summaries:
                self._ingest(summary)
        return True

    def receive_batch_columns(
        self,
        rank: int,
        columns: SummaryColumns,
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """Like :meth:`receive_batch`, for a zero-copy decoded batch.

        The columnar engine ingests the arrays directly; the reference
        engine materializes :class:`SliceSummary` objects first so its
        per-summary ``_ingest`` path (and any test hook overriding it)
        stays on the wire path.
        """
        if not self._admit(rank, len(columns), seq, encoded_bytes):
            return False
        if self._columns is not None:
            duplicates, max_window = self._columns.ingest_columns(
                columns, self._sensor_types, self._last_seen
            )
            self._note_ingest(duplicates, max_window)
        else:
            for summary in columns.to_summaries():
                self._ingest(summary)
        return True

    def _admit(
        self, rank: int, n_rows: int, seq: int | None, encoded_bytes: int | None
    ) -> bool:
        """Account one arriving batch; False for a redelivered ``seq``."""
        self.batches_received += 1
        if encoded_bytes is None:
            encoded_bytes = 8 + SliceSummary.WIRE_BYTES * n_rows
        self.bytes_received += encoded_bytes
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

    def _note_ingest(self, duplicates: int, max_window: int | None) -> None:
        """Fold one columnar ingest's outcome into the server counters."""
        if duplicates:
            self.duplicate_summaries += duplicates
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_summaries").inc(duplicates)
        if max_window is not None and max_window > self._max_window:
            self._max_window = max_window

    def _advance_watermark(self, rank: int, seq: int) -> bool:
        """Record one received sequence number; False if already seen."""
        tracker = self._seqs.get(rank)
        if tracker is None:
            tracker = self._seqs[rank] = SequenceTracker()
        return tracker.accept(seq)

    def ack_watermark(self, rank: int) -> int:
        """Highest sequence number below which everything arrived."""
        tracker = self._seqs.get(rank)
        return -1 if tracker is None else tracker.watermark

    def is_acked(self, rank: int, seq: int) -> bool:
        tracker = self._seqs.get(rank)
        return tracker is not None and tracker.is_acked(seq)

    def _ingest(self, summary: SliceSummary) -> None:
        key = summary.identity
        if key in self._store:
            self.duplicate_summaries += 1
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_summaries").inc()
            return
        self._store[key] = summary
        self._analysis = None
        self._max_window = max(self._max_window, int(summary.t_slice_start // self.window_us))
        self._sensor_types[summary.sensor_id] = summary.sensor_type
        last = self._last_seen.get(summary.rank)
        if last is None or summary.t_slice_start > last:
            self._last_seen[summary.rank] = summary.t_slice_start

    @property
    def stored_summaries(self) -> int:
        """Deduplicated summaries currently in the store (either engine)."""
        if self._columns is not None:
            return len(self._columns)
        return len(self._store)

    # -- degradation / coverage --------------------------------------------

    def mark_degraded(self, rank: int) -> None:
        self.degraded.add(rank)

    def silent_ranks(self, now: float, staleness_us: float | None = None) -> list[int]:
        """Ranks whose freshest data is older than ``staleness_us`` —
        candidates for degraded marking when their spool goes quiet."""
        if staleness_us is None:
            staleness_us = 4.0 * self.batch_period_us
        out = []
        for rank in range(self.n_ranks):
            last = self._last_seen.get(rank)
            if last is None or now - last > staleness_us:
                out.append(rank)
        return out

    # -- canonical replay ---------------------------------------------------

    def _replay(self) -> _Analysis:
        """Build derived state by replaying the store in canonical order.

        The store is keyed, so the replay order is a function of the data
        only — identical matrices for any batch arrival order.  Canonical
        order is slice-major (virtual time), matching how a loss-free
        in-order run would have fed the online history.
        """
        if self._analysis is not None:
            return self._analysis
        analysis = _Analysis()
        history = analysis.history
        totals: dict[tuple[int, int], dict[int, list[float]]] = {}
        # Slice-major (virtual-time) order, then rank/sensor/group as the
        # deterministic tiebreak.
        for key in sorted(self._store, key=lambda k: (k[3], k[0], k[1], k[2])):
            summary = self._store[key]
            window = int(summary.t_slice_start // self.window_us)
            perf = history.observe(summary.sensor_id, summary.group, summary.mean_duration)
            analysis.cells.setdefault((summary.sensor_type, window), {}).setdefault(
                summary.rank, []
            ).append(perf)
            totals.setdefault((summary.sensor_id, window), {}).setdefault(
                summary.rank, []
            ).append(summary.mean_duration)
        for sensor_window, per_rank in totals.items():
            analysis.per_sensor[sensor_window] = {
                rank: float(np.mean(values)) for rank, values in per_rank.items()
            }
        self._analysis = analysis
        return analysis

    def _replay_columnar(self) -> ColumnarStore:
        """Bring the columnar store's canonical order up to date.

        Emits a ``server.replay`` span (kind + rows attrs) and bumps the
        ``server.replay.{full,incremental}`` counter — only when the store
        actually had pending rows, so pure queries stay silent.
        """
        store = self._columns
        assert store is not None
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
        if self._columns is not None:
            self._replay_columnar()
            return SensorHistory.from_standards(self._columns.history_standards())
        return self._replay().history

    # -- inter-process analysis (§5.4) --------------------------------------

    def detect_inter_process(self, min_ranks: int = 2) -> list[InterProcessEvent]:
        """Compare the same v-sensor across ranks within each window."""
        self.inter_events = []
        if self._columns is not None:
            store = self._replay_columnar()
            blocks = store.inter_blocks()
        else:
            analysis = self._replay()
            blocks = (
                (
                    sensor_id,
                    window,
                    np.array(sorted(per_rank)),
                    np.array([per_rank[rank] for rank in sorted(per_rank)]),
                )
                for (sensor_id, window), per_rank in sorted(analysis.per_sensor.items())
            )
        for sensor_id, window, ranks, durations in blocks:
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
                    sensor_type=self._sensor_type_of(sensor_id),
                    window_index=window,
                    t_window_start=window * self.window_us,
                    slow_ranks=tuple(int(r) for r in ranks[slow_mask]),
                    worst_performance=float(perf.min()),
                    coverage=len(ranks) / self.n_ranks if self.n_ranks else 1.0,
                )
            )
        return self.inter_events

    def _sensor_type_of(self, sensor_id: int) -> SensorType:
        return self._sensor_types.get(sensor_id, SensorType.COMPUTATION)

    # -- matrices (§5.5) -------------------------------------------------------

    def performance_matrix(self, sensor_type: SensorType) -> np.ndarray:
        """(n_ranks, n_windows) matrix of normalized performance.

        Cells without data are NaN; the visualizer paints them neutrally.
        Degraded ranks simply keep their NaN cells — partial telemetry
        must never crash matrix rendering.
        """
        n_windows = self._max_window + 1
        if self._columns is not None:
            store = self._replay_columnar()
            return store.matrix(SENSOR_TYPE_CODE[sensor_type], self.n_ranks, n_windows)
        analysis = self._replay()
        matrix = np.full((self.n_ranks, n_windows), np.nan)
        for (stype, window), ranks in analysis.cells.items():
            if stype is not sensor_type:
                continue
            for rank, values in ranks.items():
                matrix[rank, window] = float(np.mean(values))
        return matrix

    def mean_rank_performance(self, sensor_type: SensorType) -> np.ndarray:
        """Per-rank mean normalized performance (persistent-fault signal)."""
        matrix = self.performance_matrix(sensor_type)
        # Ranks without any data stay NaN; nanmean would warn on their rows.
        means = np.full(matrix.shape[0], np.nan)
        has_data = ~np.isnan(matrix).all(axis=1)
        if has_data.any():
            means[has_data] = np.nanmean(matrix[has_data], axis=1)
        return means
