"""Record types flowing through the dynamic module."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.errors import ReproError
from repro.sensors.model import SensorType

#: wire codes for sensor types — shared by the spool codec and the columnar
#: analysis store so decoded batches never need enum objects per row
SENSOR_TYPE_CODE = {SensorType.COMPUTATION: 0, SensorType.NETWORK: 1, SensorType.IO: 2}
CODE_SENSOR_TYPE = {code: stype for stype, code in SENSOR_TYPE_CODE.items()}


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One Tick..Tock execution of a v-sensor on one rank."""

    rank: int
    sensor_id: int
    sensor_type: SensorType
    t_start: float
    t_end: float
    instructions: float
    cache_miss_rate: float
    #: dynamic-rule group key; "" until grouped
    group: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class SliceSummary:
    """Average behaviour of one sensor (group) during one time slice.

    This is the unit of storage and of communication with the analysis
    server: instead of a long record list, only slice summaries exist
    (§5.1) — and per sensor only a scalar standard time is kept as history
    (§5.3).
    """

    rank: int
    sensor_id: int
    sensor_type: SensorType
    group: str
    slice_index: int
    t_slice_start: float
    mean_duration: float
    count: int
    mean_cache_miss: float

    #: serialized size in bytes when sent to the analysis server: sensor id
    #: (4) + slice (4) + duration (4) + count (2) + miss rate (2)
    WIRE_BYTES = 16

    @property
    def identity(self) -> tuple[int, int, str, int]:
        """Dedup key for idempotent server ingest: a rank emits at most one
        summary per (sensor, group, slice), so redelivery is detectable
        without any transport metadata.  There is no job dimension: one
        analysis store, transport or spool holds one tenant's records, and
        the service layer routes by its port's job before ingest."""
        return (self.rank, self.sensor_id, self.group, self.slice_index)


def rank_error(rank: int, n_ranks: int) -> ReproError:
    """What a store raises at its first read after ingesting a row whose
    rank is outside its job — outside input, such as a spool file named
    for a rank the job does not have."""
    return ReproError(f"summary row names rank {rank}; this job has ranks 0..{n_ranks - 1}")


def duration_error(rank: int, sensor_id: int, slice_index: int) -> ReproError:
    """What a store raises at its first read after ingesting a row whose
    mean duration is NaN — outside input as well: a slice's mean over
    executions the detector timed is a number (``inf`` stays valid)."""
    return ReproError(
        f"summary row of rank {rank}, sensor {sensor_id}, slice {slice_index} "
        "has a NaN mean duration"
    )


_ROW_FIELDS = attrgetter(
    "rank", "sensor_id", "sensor_type", "group", "slice_index",
    "t_slice_start", "mean_duration", "count", "mean_cache_miss",
)


@dataclass(slots=True)
class SummaryColumns:
    """Slice summaries as parallel column arrays (no per-row objects).

    The one columnar form of the record — what the zero-copy spool decode
    produces, what a :class:`SummaryView` gathers from its detector's log,
    what the columnar store takes in: every field of :class:`SliceSummary`
    as one NumPy array, group strings as per-row codes plus a ``code ->
    string`` table.  Iterating yields :class:`SliceSummary` rows.
    """

    rank: np.ndarray
    sensor_id: np.ndarray
    sensor_type_code: np.ndarray
    group_code: np.ndarray
    group_table: dict[int, str]
    slice_index: np.ndarray
    t_slice_start: np.ndarray
    mean_duration: np.ndarray
    count: np.ndarray
    mean_cache_miss: np.ndarray

    def __len__(self) -> int:
        return len(self.sensor_id)

    def __iter__(self) -> Iterator[SliceSummary]:
        return iter(self.to_summaries())

    @classmethod
    def from_rows(cls, rows: Iterable[SliceSummary]) -> "SummaryColumns":
        """Columns of object-form rows, in order; groups are coded in
        first-seen order."""
        fields = list(zip(*map(_ROW_FIELDS, rows))) or [()] * 9
        rank, sensor_id, stype, group, slice_index, t_start, duration, count, miss = fields
        codes: dict[str, int] = {}
        group_code = [codes.setdefault(g, len(codes)) for g in group]
        i8, f8 = np.int64, np.float64
        return cls(
            np.array(rank, i8), np.array(sensor_id, i8),
            np.array([SENSOR_TYPE_CODE[t] for t in stype], np.int8),
            np.array(group_code, i8), {code: g for g, code in codes.items()},
            np.array(slice_index, i8), np.array(t_start, f8), np.array(duration, f8),
            np.array(count, i8), np.array(miss, f8),
        )

    def to_summaries(self) -> list[SliceSummary]:
        """Materialize per-row objects."""
        groups = self.group_table
        return [
            SliceSummary(rank, sensor, CODE_SENSOR_TYPE[stype], groups.get(group, ""),
                         index, t_start, duration, count, miss)
            for rank, sensor, stype, group, index, t_start, duration, count, miss in zip(
                self.rank.tolist(), self.sensor_id.tolist(), self.sensor_type_code.tolist(),
                self.group_code.tolist(), self.slice_index.tolist(), self.t_slice_start.tolist(),
                self.mean_duration.tolist(), self.count.tolist(), self.mean_cache_miss.tolist(),
            )
        ]


@dataclass(slots=True, eq=False)
class SummaryView(Sequence):
    """Rows ``start..stop`` of one rank in a detector's columnar log: what
    a run ships and what ``detector.summaries`` reads as.  The
    rows stay in the log's arrays; the view has an O(1) ``len``, slices to
    narrower views, and materializes :class:`SliceSummary` rows only for a
    consumer that indexes or iterates it."""

    #: the :class:`~repro.runtime.batch_detector.SummaryLog` holding the rows
    log: object
    rank: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice) and index.step is None:
            start, stop, _ = index.indices(len(self))
            return SummaryView(
                self.log, self.rank, self.start + start, self.start + max(start, stop)
            )
        return self.columns().to_summaries()[index]

    def __iter__(self) -> Iterator[SliceSummary]:
        return iter(self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def columns(self) -> SummaryColumns:
        return self.log.take(self.rank, slice(self.start, self.stop))

    def groups(self) -> set[str]:
        """The distinct group strings among the view's rows."""
        return self.log.groups(self.rank, self.start, self.stop)

    @staticmethod
    def gather(views: "Sequence[SummaryView]") -> SummaryColumns:
        """The rows of ``views`` (all on one log), concatenated in order,
        with one gather per column."""
        rank = np.array([v.rank for v in views])
        start = np.array([v.start for v in views])
        lens = np.array([v.stop for v in views]) - start
        ends = np.cumsum(lens)
        ordinal = np.arange(ends[-1]) + np.repeat(start - (ends - lens), lens)
        return views[0].log.take(np.repeat(rank, lens), ordinal)
