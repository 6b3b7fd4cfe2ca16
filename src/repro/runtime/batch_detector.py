"""Rank-vectorised detector state for fused lockstep Tocks (§5.1–§5.3).

The lockstep tier executes a Tock once for every rank.  A
:class:`BatchDetector` keeps what one :class:`RankDetector` per rank would
keep — §5.3 shutoff counters, the open slice and the standard time of each
(sensor, group) — as arrays over ranks, and :meth:`BatchDetector.step`
advances all of them for one record per rank in a few NumPy operations.
Every per-rank result (summaries, events, shutoff sets, standard times,
record counts) is the scalar classes' to the bit: each array expression is
lane by lane the scalar statement it replaces, evaluated in the same order.

The scalar classes remain the production path of the bytecode and AST
tiers.  A lockstep run starts on them too and :meth:`BatchDetector.adopt`
gathers their state at the first fused Tock; from then on this is the only
state, and records from drained lanes step it at width one through
:class:`RankView`, which also keeps ``runtime.detectors[rank]`` readable.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.detector import DetectorConfig, RankDetector, VarianceEvent
from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.records import SENSOR_TYPE_CODE, SensorRecord, SummaryColumns, SummaryView
from repro.sensors.model import SensorType

#: one logged slice: the fields its place does not imply (the rank is the
#: array row, the slice start is ``slice * slice_us``)
_LOG_DTYPE = np.dtype(
    [("sensor", "i8"), ("stype", "i1"), ("group", "i8"), ("slice", "i8"),
     ("mean", "f8"), ("count", "i8"), ("miss", "f8")]
)


class SummaryLog:
    """Every slice a run has closed, as columns: the record of the batch path.

    One ``(n_ranks, capacity)`` array whose row ``r`` holds rank ``r``'s
    summaries in emission order, so a rank's rows ``a..b`` are a
    :class:`~repro.runtime.records.SummaryView` with no index to keep.
    """

    def __init__(self, n_ranks: int, slice_us: float) -> None:
        self.slice_us = slice_us
        #: summaries logged so far, per rank
        self.rows = np.zeros(n_ranks, dtype=np.int64)
        #: interned dynamic-rule group strings; code 0 is ""
        self.group_table: dict[int, str] = {0: ""}
        self._codes: dict[str, int] = {"": 0}
        self._log = np.empty((n_ranks, 64), _LOG_DTYPE)

    def intern(self, group: str) -> int:
        code = self._codes.get(group)
        if code is None:
            code = self._codes[group] = len(self._codes)
            self.group_table[code] = group
        return code

    def append(self, ranks: np.ndarray, *values) -> None:
        """Log one summary on each of the distinct ``ranks``; ``values`` are
        scalars or per-rank vectors in ``_LOG_DTYPE`` order."""
        self._write(ranks, self.rows[ranks], values)
        self.rows[ranks] += 1

    def extend(self, rank: int, cols: SummaryColumns) -> None:
        """Log one rank's object-era summaries (adoption)."""
        k = len(cols)
        groups = [self.intern(cols.group_table.get(c, "")) for c in cols.group_code.tolist()]
        values = (cols.sensor_id, cols.sensor_type_code, groups, cols.slice_index,
                  cols.mean_duration, cols.count, cols.mean_cache_miss)
        self._write(np.full(k, rank), self.rows[rank] + np.arange(k), values)
        self.rows[rank] += k

    def _write(self, ranks: np.ndarray, ordinal: np.ndarray, values) -> None:
        n_ranks, cap = self._log.shape
        if ordinal.max() >= cap:
            grown = np.empty((n_ranks, 2 * max(cap, int(ordinal.max()))), _LOG_DTYPE)
            grown[:, :cap] = self._log
            self._log = grown
        for name, value in zip(_LOG_DTYPE.names, values):
            self._log[name][ranks, ordinal] = value

    def take(self, ranks, ordinal) -> SummaryColumns:
        """Rows ``(ranks[i], ordinal[i])`` as columns, in one gather — or,
        given one rank and a slice of its ordinals, that stretch as views."""
        rows = self._log[ranks, ordinal]
        if not isinstance(ranks, np.ndarray):
            ranks = np.full(len(rows), ranks)
        return SummaryColumns(
            ranks, rows["sensor"], rows["stype"], rows["group"], self.group_table,
            rows["slice"], rows["slice"] * self.slice_us, rows["mean"], rows["count"],
            rows["miss"],
        )

    def view(self, rank: int) -> SummaryView:
        """Everything ``rank`` has logged so far."""
        return SummaryView(self, rank, 0, int(self.rows[rank]))

    def groups(self, rank: int, start: int, stop: int) -> set[str]:
        codes = set(self._log["group"][rank, start:stop].tolist())
        return {self.group_table[code] for code in codes}


class _Lifecycle:
    """§5.3 counters of one sensor, over ranks (``PaperShutoff``)."""

    __slots__ = ("seen", "dur_sum", "off")

    def __init__(self, n: int) -> None:
        self.seen = np.zeros(n, dtype=np.int64)
        self.dur_sum = np.zeros(n)
        self.off = np.zeros(n, dtype=bool)


class _Slices:
    """Open slice and standard time of one (sensor, group), over ranks
    (``SliceAggregator`` entry + ``SensorHistory`` entry)."""

    __slots__ = ("idx", "dur", "miss", "count", "born", "standard", "known")

    def __init__(self, n: int) -> None:
        self.idx = np.zeros(n, dtype=np.int64)
        self.dur = np.zeros(n)
        self.miss = np.zeros(n)
        #: records in the open slice; 0 = no open slice on that rank
        self.count = np.zeros(n, dtype=np.int64)
        #: per-rank order in which the open slices were first opened (the
        #: aggregator's dict order, which ``finish`` emits in)
        self.born = np.zeros(n, dtype=np.int64)
        self.standard = np.full(n, np.inf)
        #: False until the rank's first observation defines the standard
        self.known = np.zeros(n, dtype=bool)


class BatchDetector:
    """The state of ``n_ranks`` :class:`RankDetector` objects, as arrays."""

    def __init__(
        self,
        n_ranks: int,
        config: DetectorConfig | None = None,
        rule: DynamicRule | None = None,
        metrics: object | None = None,
    ) -> None:
        self.n_ranks = n_ranks
        self.config = config or DetectorConfig()
        self.rule = rule or NoGrouping()
        self.metrics = metrics
        self.records = np.zeros(n_ranks, dtype=np.int64)
        self.log = SummaryLog(n_ranks, self.config.slice_us)
        self.events: list[list[VarianceEvent]] = [[] for _ in range(n_ranks)]
        self.shutoff: list[set[int]] = [set() for _ in range(n_ranks)]
        self._life: dict[int, _Lifecycle] = {}
        self._slices: dict[tuple[int, str], _Slices] = {}
        self._types: dict[int, SensorType] = {}
        #: slices opened so far per rank (source of ``_Slices.born``)
        self._opened = np.zeros(n_ranks, dtype=np.int64)

    @classmethod
    def adopt(cls, detectors: dict[int, RankDetector]) -> "BatchDetector":
        """Gather ranks ``0..n-1``'s scalar detectors into one vector state.

        The detectors' summaries are loaded into the log; their ``events``
        / ``shutoff`` containers are taken over, not copied.  The detectors
        must not be fed again.
        """
        first = detectors[0]
        vec = cls(len(detectors), first.config, first.rule, first.metrics)
        for rank, det in detectors.items():
            vec.records[rank] = det.records_processed
            if det.summaries:
                vec.log.extend(rank, SummaryColumns.from_rows(det.summaries))
            vec.events[rank] = det.events
            vec.shutoff[rank] = det.shutoff
            for sid, seen in det.lifecycle._seen.items():
                life = vec._lifecycle(sid)
                life.seen[rank] = seen
                life.dur_sum[rank] = det.lifecycle._dur_sum[sid]
            for sid in det.shutoff:
                vec._lifecycle(sid).off[rank] = True
            vec._types.update(det._aggregator._types)
            for (sid, group), entry in det._aggregator._open.items():
                sl = vec._slice_state(sid, group)
                sl.idx[rank], sl.dur[rank], sl.miss[rank], sl.count[rank] = entry
                sl.born[rank] = vec._opened[rank]
                vec._opened[rank] += 1
            for (sid, group), standard in det.history._standard.items():
                sl = vec._slice_state(sid, group)
                sl.standard[rank] = standard
                sl.known[rank] = True
        return vec

    def view(self, rank: int) -> "RankView":
        return RankView(self, rank)

    def _lifecycle(self, sensor_id: int) -> _Lifecycle:
        life = self._life.get(sensor_id)
        if life is None:
            life = self._life[sensor_id] = _Lifecycle(self.n_ranks)
        return life

    def _slice_state(self, sensor_id: int, group: str) -> _Slices:
        sl = self._slices.get((sensor_id, group))
        if sl is None:
            sl = self._slices[(sensor_id, group)] = _Slices(self.n_ranks)
        return sl

    # -- one record per rank -------------------------------------------------

    def step(
        self,
        sensor_id: int,
        sensor_type: SensorType,
        ranks: np.ndarray,
        t_start: np.ndarray,
        t_end: np.ndarray,
        instructions: np.ndarray,
        cache_miss_rate: np.ndarray,
    ) -> list[tuple[int, VarianceEvent]]:
        """Feed one Tick..Tock record of ``sensor_id`` on each of ``ranks``.

        ``ranks`` are distinct; entry ``i`` of every vector is rank
        ``ranks[i]``'s record.  Closed slices go to :attr:`log`; returns
        ``(i, event)`` for each record whose closed slice (a record closes
        at most one) fell below the variance threshold.
        """
        cfg = self.config
        metrics = self.metrics
        life = self._lifecycle(sensor_id)
        self._types[sensor_id] = sensor_type
        # RankDetector.add: records of shut-off sensors are ignored.
        lanes = np.flatnonzero(~life.off[ranks])
        if not len(lanes):
            return []
        ranks = ranks[lanes]
        t_end = t_end[lanes]
        duration = t_end - t_start[lanes]
        miss = cache_miss_rate[lanes]
        self.records[ranks] += 1
        if metrics is not None:
            metrics.counter("detector.records").inc(len(lanes))
        # PaperShutoff.observe: the record that completes the observation
        # window of a too-short sensor shuts it off and is itself dropped.
        seen = life.seen[ranks] + 1
        total = life.dur_sum[ranks] + duration
        life.seen[ranks] = seen
        life.dur_sum[ranks] = total
        deciding = seen == cfg.shutoff_after
        if deciding.any():
            short = deciding & (total / seen < cfg.min_duration_us)
            if short.any():
                gone = ranks[short]
                life.off[gone] = True
                for rank in gone.tolist():
                    self.shutoff[rank].add(sensor_id)
                if metrics is not None:
                    metrics.counter("detector.shutoff_sensors").inc(len(gone))
                keep = ~short
                lanes, ranks = lanes[keep], ranks[keep]
                t_end, duration, miss = t_end[keep], duration[keep], miss[keep]
                if not len(lanes):
                    return []
        out: list[tuple[int, VarianceEvent]] = []
        if type(self.rule) is NoGrouping:
            self._advance(sensor_id, "", lanes, ranks, t_end, duration, miss, out)
            return out
        # Dynamic rule: group per lane, then step each (sensor, group) on
        # the lanes it got.
        group_of = self.rule.group
        parts: dict[str, list[int]] = {}
        for i, fields in enumerate(zip(
            ranks.tolist(), t_start[lanes].tolist(), t_end.tolist(),
            instructions[lanes].tolist(), miss.tolist(),
        )):
            rank, start, end, instr, rate = fields
            record = SensorRecord(rank, sensor_id, sensor_type, start, end, instr, rate)
            parts.setdefault(group_of(record), []).append(i)
        for group, members in parts.items():
            m = np.array(members)
            self._advance(
                sensor_id, group, lanes[m], ranks[m], t_end[m], duration[m], miss[m], out
            )
        return out

    def _advance(self, sensor_id, group, lanes, ranks, t_end, duration, miss, out) -> None:
        """SliceAggregator.add for one (sensor, group) on ``ranks``."""
        sl = self._slice_state(sensor_id, group)
        idx = (t_end // self.config.slice_us).astype(np.int64)
        count = sl.count[ranks]
        same = (count > 0) & (sl.idx[ranks] == idx)
        if same.any():
            held = ranks[same]
            sl.dur[held] += duration[same]
            sl.miss[held] += miss[same]
            sl.count[held] += 1
            if same.all():
                return
        rolled = ~same
        closing = rolled & (count > 0)
        if closing.any():
            self._close(sensor_id, group, sl, lanes[closing], ranks[closing], out)
        fresh = ranks[rolled & (count == 0)]
        sl.born[fresh] = self._opened[fresh]
        self._opened[fresh] += 1
        opened = ranks[rolled]
        sl.idx[opened] = idx[rolled]
        sl.dur[opened] = duration[rolled]
        sl.miss[opened] = miss[rolled]
        sl.count[opened] = 1

    def _close(self, sensor_id, group, sl, lanes, ranks, out) -> None:
        """Emit the open slice of (sensor, group) on ``ranks``:
        SliceAggregator._emit, then RankDetector._analyze with
        SensorHistory.observe."""
        count = sl.count[ranks]
        mean = sl.dur[ranks] / count
        mean_miss = sl.miss[ranks] / count
        standard = sl.standard[ranks]
        best = ~sl.known[ranks] | (mean < standard)
        # where() evaluates the quotient on the lanes it discards, too.
        with np.errstate(divide="ignore", invalid="ignore"):
            perf = np.where(best | (mean <= 0.0), 1.0, standard / mean)
        improved = ranks[best]
        sl.standard[improved] = mean[best]
        sl.known[improved] = True
        sensor_type = self._types[sensor_id]
        idx = sl.idx[ranks]
        self.log.append(
            ranks, sensor_id, SENSOR_TYPE_CODE[sensor_type], self.log.intern(group),
            idx, mean, count, mean_miss,
        )
        slow = np.flatnonzero(perf < self.config.threshold).tolist()
        for i in slow:
            rank = int(ranks[i])
            event = VarianceEvent(
                rank, sensor_id, sensor_type, group,
                int(idx[i]) * self.config.slice_us, float(perf[i]),
            )
            self.events[rank].append(event)
            out.append((int(lanes[i]), event))
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("detector.summaries").inc(len(ranks))
            observe = metrics.histogram("detector.slice_duration_us").observe
            for mean_duration in mean.tolist():
                observe(mean_duration)
            if slow:
                metrics.counter("detector.variance_events").inc(len(slow))

    def finish(self, rank: int) -> list[VarianceEvent]:
        """Flush ``rank``'s open slices at the end of its run."""
        open_slices = sorted(
            (int(sl.born[rank]), key)
            for key, sl in self._slices.items()
            if sl.count[rank] > 0
        )
        lane = np.zeros(1, dtype=np.int64)
        one = np.array([rank])
        out: list[tuple[int, VarianceEvent]] = []
        for _, key in open_slices:
            sl = self._slices[key]
            self._close(*key, sl, lane, one, out)
            sl.count[rank] = 0
        return [event for _, event in out]


class _RankHistory:
    """``SensorHistory``'s read surface for one rank."""

    __slots__ = ("_vec", "_rank")

    def __init__(self, vec: BatchDetector, rank: int) -> None:
        self._vec = vec
        self._rank = rank

    def standard_time(self, sensor_id: int, group: str = "") -> float | None:
        sl = self._vec._slices.get((sensor_id, group))
        if sl is None or not sl.known[self._rank]:
            return None
        return float(sl.standard[self._rank])

    def entries(self) -> int:
        return sum(bool(sl.known[self._rank]) for sl in self._vec._slices.values())


class RankView:
    """One rank of a :class:`BatchDetector` behind ``RankDetector``'s surface.

    ``add`` / ``finish`` step the shared vector state at width one, so a
    drained lane's scalar records and the fused batches act on one state.
    """

    __slots__ = ("_vec", "rank", "history")

    def __init__(self, vec: BatchDetector, rank: int) -> None:
        self._vec = vec
        self.rank = rank
        self.history = _RankHistory(vec, rank)

    config = property(lambda self: self._vec.config)
    rule = property(lambda self: self._vec.rule)
    metrics = property(lambda self: self._vec.metrics)
    summaries = property(lambda self: self._vec.log.view(self.rank))
    events = property(lambda self: self._vec.events[self.rank])
    shutoff = property(lambda self: self._vec.shutoff[self.rank])
    records_processed = property(lambda self: int(self._vec.records[self.rank]))

    def add(self, record: SensorRecord) -> list[VarianceEvent]:
        out = self._vec.step(
            record.sensor_id,
            record.sensor_type,
            np.array([self.rank]),
            np.array([record.t_start]),
            np.array([record.t_end]),
            np.array([record.instructions]),
            np.array([record.cache_miss_rate]),
        )
        return [event for _, event in out]

    def finish(self) -> list[VarianceEvent]:
        return self._vec.finish(self.rank)
