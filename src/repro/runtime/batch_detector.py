"""The dynamic module's per-rank state, as arrays over ranks (§5.1–§5.3).

One :class:`BatchDetector` holds every rank's detector state for a run on
every tier — §5.3 shutoff counters, and per (sensor, group) the open time
slice and the standard time — plus the :class:`SummaryLog` of every slice
the run has closed.  It takes records two ways, which act on the same
arrays and do each floating-point operation in the same order:

* :meth:`BatchDetector.add` — one record on one rank, in Python scalars:
  the bytecode and AST tiers, every governed run, a lockstep lane before
  the first fused Tock or after a drain, and :meth:`BatchDetector.finish`;
* :meth:`BatchDetector.step` — one record on each of several ranks (a
  fused lockstep Tock), in a few NumPy operations.

:class:`RankView` is the read-only per-rank surface behind
``runtime.detectors[rank]``.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.detector import DetectorConfig, VarianceEvent
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
    """Every slice a run has closed, as columns: the record of the run.

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

    def _fit(self, top: int) -> None:
        """Make room for ordinal ``top`` on every rank."""
        n_ranks, cap = self._log.shape
        if top >= cap:
            grown = np.empty((n_ranks, 2 * max(cap, top)), _LOG_DTYPE)
            grown[:, :cap] = self._log
            self._log = grown

    def append(self, ranks: np.ndarray, *values) -> None:
        """Log one summary on each of the distinct ``ranks``; ``values`` are
        scalars or per-rank vectors in ``_LOG_DTYPE`` order."""
        ordinal = self.rows[ranks]
        self._fit(int(ordinal.max()))
        for name, value in zip(_LOG_DTYPE.names, values):
            self._log[name][ranks, ordinal] = value
        self.rows[ranks] += 1

    def append_row(self, rank: int, row: tuple) -> None:
        """Log one summary on ``rank``: ``row`` in ``_LOG_DTYPE`` order."""
        k = self.rows.item(rank)
        self._fit(k)
        self._log[rank, k] = row
        self.rows[rank] = k + 1

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

    def view(self, rank: int, start: int = 0) -> SummaryView:
        """What ``rank`` has logged so far, from ordinal ``start`` on."""
        return SummaryView(self, rank, start, self.rows.item(rank))

    def groups(self, rank: int, start: int, stop: int) -> set[str]:
        codes = set(self._log["group"][rank, start:stop].tolist())
        return {self.group_table[code] for code in codes}


class _Lifecycle:
    """§5.3 counters of one sensor, over ranks."""

    __slots__ = ("seen", "dur_sum", "off")

    def __init__(self, n: int) -> None:
        self.seen = np.zeros(n, dtype=np.int64)
        self.dur_sum = np.zeros(n)
        self.off = np.zeros(n, dtype=bool)


class _Slices:
    """Open slice (§5.1) and standard time (§5.2) of one (sensor, group),
    over ranks."""

    __slots__ = ("idx", "dur", "miss", "count", "born", "standard", "known")

    def __init__(self, n: int) -> None:
        self.idx = np.zeros(n, dtype=np.int64)
        self.dur = np.zeros(n)
        self.miss = np.zeros(n)
        #: records in the open slice; 0 = no open slice on that rank
        self.count = np.zeros(n, dtype=np.int64)
        #: per-rank order in which the open slices were first opened, which
        #: ``finish`` closes them in
        self.born = np.zeros(n, dtype=np.int64)
        self.standard = np.full(n, np.inf)
        #: False until the rank's first observation defines the standard
        self.known = np.zeros(n, dtype=bool)


class BatchDetector:
    """Online variance detection for ``n_ranks`` ranks: records are
    smoothed into time-slice summaries (§5.1), normalised against the
    fastest slice seen per (sensor, group) (§5.2) and checked against the
    threshold; sensors too short to time are shut off (§5.3).

    ``on_shutoff(rank, sensor_id)``, when given, is told of every §5.3
    shutoff at the moment it happens (the overhead governor's hook).
    """

    def __init__(
        self,
        n_ranks: int,
        config: DetectorConfig | None = None,
        rule: DynamicRule | None = None,
        metrics: object | None = None,
        on_shutoff=None,
    ) -> None:
        self.n_ranks = n_ranks
        self.config = config or DetectorConfig()
        self.rule = rule or NoGrouping()
        self.metrics = metrics
        self.on_shutoff = on_shutoff
        self.records = np.zeros(n_ranks, dtype=np.int64)
        self.log = SummaryLog(n_ranks, self.config.slice_us)
        self.events: list[list[VarianceEvent]] = [[] for _ in range(n_ranks)]
        self.shutoff: list[set[int]] = [set() for _ in range(n_ranks)]
        self._life: dict[int, _Lifecycle] = {}
        self._slices: dict[tuple[int, str], _Slices] = {}
        self._types: dict[int, SensorType] = {}
        #: slices opened so far per rank (source of ``_Slices.born``)
        self._opened = np.zeros(n_ranks, dtype=np.int64)

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

    def _shut(self, rank: int, sensor_id: int) -> None:
        self.shutoff[rank].add(sensor_id)
        if self.on_shutoff is not None:
            self.on_shutoff(rank, sensor_id)

    # -- one record on one rank ----------------------------------------------

    def add(
        self,
        rank: int,
        sensor_id: int,
        sensor_type: SensorType,
        t_start: float,
        t_end: float,
        instructions: float,
        cache_miss_rate: float,
    ) -> VarianceEvent | None:
        """Feed one Tick..Tock record of ``sensor_id`` on ``rank``.

        :meth:`step` at width one, in Python scalars.  A closed slice goes
        to :attr:`log`; returns its event if it fell below the variance
        threshold (a record closes at most one slice).
        """
        cfg = self.config
        metrics = self.metrics
        life = self._lifecycle(sensor_id)
        self._types[sensor_id] = sensor_type
        # Records of shut-off sensors are ignored.
        if life.off.item(rank):
            return None
        self.records[rank] += 1
        if metrics is not None:
            metrics.counter("detector.records").inc()
        # The record that completes the observation window of a too-short
        # sensor shuts it off and is itself dropped.
        duration = t_end - t_start
        seen = life.seen.item(rank) + 1
        total = life.dur_sum.item(rank) + duration
        life.seen[rank] = seen
        life.dur_sum[rank] = total
        if seen == cfg.shutoff_after and total / seen < cfg.min_duration_us:
            life.off[rank] = True
            self._shut(rank, sensor_id)
            if metrics is not None:
                metrics.counter("detector.shutoff_sensors").inc()
            return None
        if type(self.rule) is NoGrouping:
            group = ""
        else:
            group = self.rule.group(SensorRecord(
                rank, sensor_id, sensor_type, t_start, t_end, instructions, cache_miss_rate
            ))
        sl = self._slice_state(sensor_id, group)
        idx = int(t_end // cfg.slice_us)
        count = sl.count.item(rank)
        if count and sl.idx.item(rank) == idx:
            sl.dur[rank] = sl.dur.item(rank) + duration
            sl.miss[rank] = sl.miss.item(rank) + cache_miss_rate
            sl.count[rank] = count + 1
            return None
        if count:
            event = self._close_one(sensor_id, group, sl, rank)
        else:
            event = None
            sl.born[rank] = opened = self._opened.item(rank)
            self._opened[rank] = opened + 1
        sl.idx[rank] = idx
        sl.dur[rank] = duration
        sl.miss[rank] = cache_miss_rate
        sl.count[rank] = 1
        return event

    def _close_one(self, sensor_id: int, group: str, sl: _Slices, rank: int) -> VarianceEvent | None:
        """Emit the open slice of (sensor, group) on ``rank``: :meth:`_close`
        at width one."""
        cfg = self.config
        count = sl.count.item(rank)
        mean = sl.dur.item(rank) / count
        standard = sl.standard.item(rank)
        if not sl.known.item(rank) or mean < standard:
            sl.standard[rank] = mean
            sl.known[rank] = True
            perf = 1.0
        elif mean <= 0.0:
            perf = 1.0
        else:
            perf = standard / mean
        sensor_type = self._types[sensor_id]
        idx = sl.idx.item(rank)
        self.log.append_row(rank, (
            sensor_id, SENSOR_TYPE_CODE[sensor_type], self.log.intern(group), idx,
            mean, count, sl.miss.item(rank) / count,
        ))
        event = None
        if perf < cfg.threshold:
            event = VarianceEvent(rank, sensor_id, sensor_type, group, idx * cfg.slice_us, perf)
            self.events[rank].append(event)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("detector.summaries").inc()
            metrics.histogram("detector.slice_duration_us").observe(mean)
            if event is not None:
                metrics.counter("detector.variance_events").inc()
        return event

    def finish(self, rank: int) -> list[VarianceEvent]:
        """Flush ``rank``'s open slices at the end of its run, in the order
        they were first opened."""
        open_slices = sorted(
            (sl.born.item(rank), key)
            for key, sl in self._slices.items()
            if sl.count.item(rank)
        )
        events = []
        for _, key in open_slices:
            sl = self._slices[key]
            event = self._close_one(*key, sl, rank)
            sl.count[rank] = 0
            if event is not None:
                events.append(event)
        return events

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
        ``ranks[i]``'s record.  Each array expression is lane by lane the
        statement :meth:`add` runs, in the same order.  Closed slices go to
        :attr:`log`; returns ``(i, event)`` for each record whose closed
        slice fell below the variance threshold.
        """
        cfg = self.config
        metrics = self.metrics
        life = self._lifecycle(sensor_id)
        self._types[sensor_id] = sensor_type
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
                    self._shut(rank, sensor_id)
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
        """Add one record to, or roll, the open slice of (sensor, group) on
        ``ranks``."""
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
        """Emit the open slice of (sensor, group) on ``ranks``, normalise
        its mean against the standard time and lower the standard."""
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


class _RankHistory:
    """One rank's standard times (``SensorHistory``'s read surface)."""

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
    """One rank of a :class:`BatchDetector`, read-only: what reports, the
    history store and benchmarks read as ``runtime.detectors[rank]``."""

    __slots__ = ("_vec", "rank", "history")

    def __init__(self, vec: BatchDetector, rank: int) -> None:
        self._vec = vec
        self.rank = rank
        self.history = _RankHistory(vec, rank)

    metrics = property(lambda self: self._vec.metrics)
    summaries = property(lambda self: self._vec.log.view(self.rank))
    events = property(lambda self: self._vec.events[self.rank])
    shutoff = property(lambda self: self._vec.shutoff[self.rank])
    records_processed = property(lambda self: int(self._vec.records[self.rank]))
