"""The analysis store's reference implementation — the test oracle.

:class:`ReferenceStore` is the original object-at-a-time data path behind
the interface of :class:`~repro.runtime.columnar.ColumnarStore`: a dict
keyed by summary identity, fully sorted and replayed through a scalar
:class:`~repro.runtime.history.SensorHistory` whenever a query follows an
ingest, per-cell Python lists averaged with ``np.mean``, and sequentially
written trackers for the answers the columnar store reads off its columns.
It shares no code with the production store; ``engine="reference"`` must
be bit-identical to it under any delivery schedule.  It replays inside
its own queries and never reports pending work, so the ``server.replay``
span and counters describe the production store only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.runtime.history import SensorHistory
from repro.runtime.records import (
    CODE_SENSOR_TYPE, SliceSummary, SummaryColumns, duration_error, rank_error,
)
from repro.sensors.model import SensorType


class _Analysis(NamedTuple):
    """Derived state of one full replay (dropped by the next ingest)."""

    #: (type, window) -> rank -> [normalized perf per slice]
    cells: dict[tuple[SensorType, int], dict[int, list[float]]]
    #: (sensor, window) -> rank -> mean duration of the rank's slices
    per_sensor: dict[tuple[int, int], dict[int, float]]
    history: SensorHistory


class ReferenceStore:
    """Identity-keyed dict of summaries, replayed in full per query epoch."""

    def __init__(self, window_us: float, n_ranks: int) -> None:
        self.window_us = window_us
        self.n_ranks = n_ranks
        #: (rank, sensor, group, slice) -> summary
        self._store: dict[tuple[int, int, str, int], SliceSummary] = {}
        self._analysis: _Analysis | None = None
        self._max_window = 0
        self._sensor_types: dict[int, SensorType] = {}
        self._last_seen: dict[int, float] = {}
        #: identity duplicates seen and not yet reported by ``settle``
        self._duplicates = 0
        #: ranks of ingested rows outside the job, and (rank, sensor, slice)
        #: of rows with a NaN duration; ``settle`` raises on them
        self._bad_ranks: list[int] = []
        self._nan_rows: list[tuple[int, int, int]] = []

    def __len__(self) -> int:
        return len(self._store)

    # -- ingest ------------------------------------------------------------

    def ingest_summaries(self, summaries: Sequence[SliceSummary] | SummaryColumns) -> None:
        for summary in summaries:
            if not 0 <= summary.rank < self.n_ranks:
                self._bad_ranks.append(summary.rank)
                continue
            if math.isnan(summary.mean_duration):
                self._nan_rows.append((summary.rank, summary.sensor_id, summary.slice_index))
                continue
            key = summary.identity
            if key in self._store:
                self._duplicates += 1
                continue
            self._store[key] = summary
            self._analysis = None
            window = int(summary.t_slice_start // self.window_us)
            self._max_window = max(self._max_window, window)
            self._sensor_types[summary.sensor_id] = summary.sensor_type
            last = self._last_seen.get(summary.rank)
            if last is None or summary.t_slice_start > last:
                self._last_seen[summary.rank] = summary.t_slice_start


    def settle(self) -> int:
        if self._bad_ranks:
            raise rank_error(self._bad_ranks[0], self.n_ranks)
        if self._nan_rows:
            raise duration_error(*self._nan_rows[0])
        duplicates, self._duplicates = self._duplicates, 0
        return duplicates

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return False

    def replay(self) -> None:
        return None

    def _replay(self) -> _Analysis:
        """Build derived state by replaying the store in canonical order:
        slice-major (virtual time, as a loss-free in-order run would have
        fed the online history), rank/sensor/group as the tiebreak — a
        function of the data only, whatever order the batches arrived in."""
        if self._analysis is not None:
            return self._analysis
        analysis = _Analysis({}, {}, SensorHistory())
        history = analysis.history
        totals: dict[tuple[int, int], dict[int, list[float]]] = {}
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

    def history_standards(self) -> dict[tuple[int, str], float]:
        return dict(self._replay().history._standard)

    # -- answers about the rows --------------------------------------------

    def max_window(self) -> int:
        return self._max_window

    def last_seen(self) -> dict[int, float]:
        return dict(self._last_seen)

    def sensor_types(self) -> dict[int, SensorType]:
        return dict(self._sensor_types)

    # -- queries -----------------------------------------------------------

    def matrix(self, stype_code: int, n_ranks: int, n_windows: int) -> np.ndarray:
        sensor_type = CODE_SENSOR_TYPE[stype_code]
        matrix = np.full((n_ranks, n_windows), np.nan)
        for (stype, window), ranks in self._replay().cells.items():
            if stype is not sensor_type:
                continue
            for rank, values in ranks.items():
                matrix[rank, window] = float(np.mean(values))
        return matrix

    def inter_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        entries = [
            (sensor_id, window, rank, per_rank[rank])
            for (sensor_id, window), per_rank in sorted(self._replay().per_sensor.items())
            for rank in sorted(per_rank)
        ]
        sensor, window, rank, mean = zip(*entries) if entries else ((), (), (), ())
        return (
            np.array(sensor, np.int64), np.array(window, np.int64),
            np.array(rank, np.int64), np.array(mean, np.float64),
        )
