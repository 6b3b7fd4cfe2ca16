"""Shared helpers for the service test suite."""

from __future__ import annotations

from repro.runtime.records import SliceSummary
from repro.sensors.model import SensorType


def make_summary(
    rank: int,
    sensor_id: int,
    stype: SensorType,
    group: str,
    slice_index: int,
    duration: float,
    miss: float = 0.1,
) -> SliceSummary:
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=3,
        mean_cache_miss=miss,
    )
