"""The dynamic module's per-rank state as plain Python: the detector oracle.

:class:`RankOracle` is one rank's §5.1–§5.3 detector written record by
record with dicts — the §5.3 shutoff counters, the open time slice per
(sensor, group) and the standard-time history
(:class:`~repro.runtime.history.SensorHistory`).  It shares no code with
:class:`~repro.runtime.batch_detector.BatchDetector`, whose ``add`` and
``step`` must reproduce it to the bit: summaries, events, shutoff sets,
standard times, record counts, metrics and shutoff notices.

:class:`OneRank` and :class:`OneRankSlices` put a production
``BatchDetector`` fed through ``add`` behind the oracle's surface, so
per-rank test cases run against the production path.
"""

from __future__ import annotations

from repro.runtime.batch_detector import BatchDetector
from repro.runtime.detector import DetectorConfig, VarianceEvent
from repro.runtime.dynrules import NoGrouping
from repro.runtime.history import SensorHistory
from repro.runtime.records import SensorRecord, SliceSummary


class RankOracle:
    """One rank's time-slice aggregation (§5.1), history normalisation
    (§5.2) and short-sensor shutoff (§5.3), one record at a time."""

    def __init__(
        self, rank: int, config=None, rule=None, metrics=None, on_shutoff=None
    ) -> None:
        self.rank = rank
        self.config = config or DetectorConfig()
        self.rule = rule or NoGrouping()
        self.metrics = metrics
        #: called as ``on_shutoff(rank, sensor_id)`` when §5.3 fires
        self.on_shutoff = on_shutoff
        self.history = SensorHistory()
        self.summaries: list[SliceSummary] = []
        self.events: list[VarianceEvent] = []
        self.shutoff: set[int] = set()
        self.records_processed = 0
        self._seen: dict[int, int] = {}
        self._dur_sum: dict[int, float] = {}
        #: (sensor, group) -> [slice index, total duration, total miss, count]
        self._open: dict[tuple[int, str], list] = {}
        self._types: dict = {}

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def add(self, record: SensorRecord) -> list[VarianceEvent]:
        """Feed one probe record; return any new variance events."""
        sid = record.sensor_id
        if sid in self.shutoff:
            return []
        self.records_processed += 1
        self._count("detector.records")
        # §5.3: after ``shutoff_after`` records a sensor whose mean
        # duration is below ``min_duration_us`` is shut off for good; the
        # deciding record is dropped.
        seen = self._seen.get(sid, 0) + 1
        self._seen[sid] = seen
        self._dur_sum[sid] = self._dur_sum.get(sid, 0.0) + record.duration
        if seen == self.config.shutoff_after:
            if self._dur_sum[sid] / seen < self.config.min_duration_us:
                self.shutoff.add(sid)
                if self.on_shutoff is not None:
                    self.on_shutoff(self.rank, sid)
                self._count("detector.shutoff_sensors")
                return []
        # §5.1: a record in a later slice closes the open one.
        key = (sid, self.rule.group(record))
        idx = int(record.t_end // self.config.slice_us)
        entry = self._open.get(key)
        if entry is not None and entry[0] == idx:
            entry[1] += record.duration
            entry[2] += record.cache_miss_rate
            entry[3] += 1
            return []
        self._types[sid] = record.sensor_type
        self._open[key] = [idx, record.duration, record.cache_miss_rate, 1]
        if entry is None:
            return []
        return self._emit(key, entry)

    def finish(self) -> list[VarianceEvent]:
        """Flush the open slices at the end of the run, oldest first."""
        events = []
        for key, entry in self._open.items():
            events += self._emit(key, entry)
        self._open.clear()
        return events

    def _emit(self, key: tuple[int, str], entry: list) -> list[VarianceEvent]:
        sid, group = key
        idx, total_duration, total_miss, count = entry
        summary = SliceSummary(
            rank=self.rank,
            sensor_id=sid,
            sensor_type=self._types[sid],
            group=group,
            slice_index=idx,
            t_slice_start=idx * self.config.slice_us,
            mean_duration=total_duration / count,
            count=count,
            mean_cache_miss=total_miss / count,
        )
        self.summaries.append(summary)
        self._count("detector.summaries")
        if self.metrics is not None:
            self.metrics.histogram("detector.slice_duration_us").observe(summary.mean_duration)
        # §5.2: normalised against the fastest slice seen so far.
        perf = self.history.observe(sid, group, summary.mean_duration)
        if perf >= self.config.threshold:
            return []
        event = VarianceEvent(
            self.rank, sid, summary.sensor_type, group, summary.t_slice_start, perf
        )
        self.events.append(event)
        self._count("detector.variance_events")
        return [event]


class OneRank:
    """A production :class:`BatchDetector` fed one rank's records through
    ``add``, behind :class:`RankOracle`'s surface."""

    def __init__(self, config=None, rule=None, *, rank=0, metrics=None, on_shutoff=None) -> None:
        self.rank = rank
        self.detector = BatchDetector(rank + 1, config, rule, metrics, on_shutoff)
        self.view = self.detector.view(rank)

    def add(self, record: SensorRecord) -> list[VarianceEvent]:
        event = self.detector.add(
            self.rank, record.sensor_id, record.sensor_type, record.t_start,
            record.t_end, record.instructions, record.cache_miss_rate,
        )
        return [] if event is None else [event]

    def finish(self) -> list[VarianceEvent]:
        return self.detector.finish(self.rank)

    summaries = property(lambda self: self.view.summaries)
    events = property(lambda self: self.view.events)
    shutoff = property(lambda self: self.view.shutoff)
    records_processed = property(lambda self: self.view.records_processed)
    history = property(lambda self: self.view.history)


class OneRankSlices(OneRank):
    """:class:`OneRank` read as a slice aggregator (§5.1): ``add`` and
    ``flush`` return the summaries they closed.  The §5.3 rule never
    decides (``shutoff_after=0``)."""

    def __init__(self, rank: int = 0, slice_us: float = 1000.0, rule=None) -> None:
        super().__init__(DetectorConfig(slice_us=slice_us, shutoff_after=0), rule, rank=rank)

    def add(self, record: SensorRecord) -> list[SliceSummary]:
        start = len(self.view.summaries)
        super().add(record)
        return list(self.view.summaries[start:])

    def flush(self) -> list[SliceSummary]:
        start = len(self.view.summaries)
        self.finish()
        return list(self.view.summaries[start:])
