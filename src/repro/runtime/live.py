"""Periodic (online) reporting — workflow step 8.

The paper emphasizes that detection is on-line: "the performance report is
updated periodically, thus users can notice performance variance without
waiting for a program to finish."  :class:`LiveReporter` implements that:
attached to a :class:`~repro.runtime.vsensor_hooks.VSensorRuntime`, it
snapshots the per-component matrices every ``period_us`` of *virtual* time
and hands each snapshot to a callback (print, write SVG, push to a
dashboard, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sensors.model import SensorType


@dataclass(slots=True)
class LiveSnapshot:
    """One periodic report."""

    virtual_time_us: float
    matrices: dict[SensorType, np.ndarray]
    intra_events: int
    #: cells per component below the run's detector threshold at snapshot time
    low_cells: dict[SensorType, int] = field(default_factory=dict)
    #: delivery counters when batches travel over a simulated channel
    #: (sent / delivered / dropped / retried / duplicated / reordered / late)
    channel: dict[str, int] | None = None
    #: ranks the transport has marked degraded by snapshot time
    degraded_ranks: tuple[int, ...] = ()

    def has_variance(
        self, threshold_cells: int = 1, component: SensorType | None = None
    ) -> bool:
        if component is not None:
            return self.low_cells.get(component, 0) >= threshold_cells
        return any(count >= threshold_cells for count in self.low_cells.values())


@dataclass(slots=True)
class LiveReporter:
    """Attach to a runtime via ``runtime.live = reporter`` (or pass it to
    :func:`repro.api.run_vsensor` as ``live``)."""

    period_us: float = 100_000.0
    callback: Callable[[LiveSnapshot], None] | None = None
    snapshots: list[LiveSnapshot] = field(default_factory=list)
    _last: float = 0.0

    def maybe_snapshot(self, runtime, now: float) -> LiveSnapshot | None:
        """Called by the runtime as data arrives; snapshots when due."""
        if now - self._last < self.period_us:
            return None
        self._last = now
        snapshot = self._build(runtime, now)
        self.snapshots.append(snapshot)
        if self.callback is not None:
            self.callback(snapshot)
        return snapshot

    def _build(self, runtime, now: float) -> LiveSnapshot:
        matrices: dict[SensorType, np.ndarray] = {}
        low_cells: dict[SensorType, int] = {}
        threshold = runtime.config.threshold
        for sensor_type in SensorType:
            matrix = runtime.server.performance_matrix(sensor_type)
            if np.isfinite(matrix).any():
                matrices[sensor_type] = matrix
                low_cells[sensor_type] = int(
                    (np.isfinite(matrix) & (matrix < threshold)).sum()
                )
        # runtime.server may be a ReliableTransport proxy; unwrap for the
        # degraded set and surface its channel counters when present.
        channel = getattr(runtime.server, "channel", None)
        server = getattr(runtime.server, "server", runtime.server)
        return LiveSnapshot(
            virtual_time_us=now,
            matrices=matrices,
            intra_events=len(runtime.events),
            low_cells=low_cells,
            channel=channel.stats.as_dict() if channel is not None else None,
            degraded_ranks=tuple(sorted(getattr(server, "degraded", ()))),
        )


def first_detection_time(
    reporter: LiveReporter,
    threshold_cells: int = 1,
    component: SensorType | None = None,
) -> float | None:
    """Virtual time of the first snapshot that showed variance — the
    "noticed before the program finished" metric.  Restrict to one
    ``component`` to ignore unrelated channels (e.g. collective wait-skew
    noise in the network matrix when hunting a CPU fault)."""
    for snapshot in reporter.snapshots:
        if snapshot.has_variance(threshold_cells, component):
            return snapshot.virtual_time_us
    return None
