"""Online variance detection's configuration and output (§5.1–§5.3).

Records from each rank's probes are smoothed into time-slice summaries,
normalized against the sensor's fastest slice and checked against the
variance threshold; sensors whose executions are too short to time
meaningfully are shut off at runtime (the overhead guard of §5.3).  The
state that does this for every rank of a run is one
:class:`~repro.runtime.batch_detector.BatchDetector`; this module holds
its knobs and the events it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sensors.model import SensorType


@dataclass(frozen=True, slots=True)
class VarianceEvent:
    """One detected performance variance."""

    rank: int
    sensor_id: int
    sensor_type: SensorType
    group: str
    t_start: float
    #: normalized performance (1.0 = best; below threshold = variance)
    performance: float


@dataclass(slots=True)
class DetectorConfig:
    slice_us: float = 1000.0
    #: normalized performance below this is reported as variance
    threshold: float = 0.7
    #: sensors whose mean duration stays below this (µs) are shut off
    min_duration_us: float = 2.0
    #: how many records to observe before deciding on shutoff
    shutoff_after: int = 50
