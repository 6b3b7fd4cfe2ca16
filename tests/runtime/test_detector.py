"""Per-rank detector tests (§5.1-§5.3), run on the production detector:
a one-rank ``BatchDetector`` fed through ``add``."""

import pytest

from repro.runtime.detector import DetectorConfig
from repro.runtime.records import SensorRecord
from repro.sensors.model import SensorType
from tests.runtime.detector_oracle import OneRank


def rec(t_end, duration, sensor_id=1, miss=0.1):
    return SensorRecord(
        rank=0,
        sensor_id=sensor_id,
        sensor_type=SensorType.COMPUTATION,
        t_start=t_end - duration,
        t_end=t_end,
        instructions=duration * 10,
        cache_miss_rate=miss,
    )


def make(threshold=0.7, slice_us=100.0, min_duration_us=0.0, shutoff_after=50):
    return OneRank(
        config=DetectorConfig(
            slice_us=slice_us,
            threshold=threshold,
            min_duration_us=min_duration_us,
            shutoff_after=shutoff_after,
        ),
    )


def test_steady_stream_no_events():
    det = make()
    t = 0.0
    for _ in range(50):
        t += 100.0
        det.add(rec(t, 10.0))
    det.finish()
    assert det.events == []


def test_slowdown_detected():
    det = make()
    t = 0.0
    for i in range(50):
        t += 100.0
        duration = 10.0 if i < 40 else 30.0
        det.add(rec(t, duration))
    det.finish()
    assert len(det.events) >= 5
    assert all(e.performance < 0.7 for e in det.events)


def test_mild_slowdown_below_threshold_ignored():
    det = make(threshold=0.5)
    t = 0.0
    for i in range(50):
        t += 100.0
        det.add(rec(t, 10.0 if i % 2 else 12.0))
    det.finish()
    assert det.events == []


def test_short_sensor_shutoff():
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(30):
        t += 100.0
        det.add(rec(t, 1.0))  # far below min duration
    assert 1 in det.shutoff
    # After shutoff, no further records are processed.
    processed = det.records_processed
    det.add(rec(t + 100, 1.0))
    assert det.records_processed == processed


def test_shutoff_fires_at_exactly_shutoff_after():
    # the decision is made on record number ``shutoff_after`` itself —
    # one record earlier the sensor is still live
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(9):
        t += 100.0
        det.add(rec(t, 1.0))
    assert det.shutoff == set()
    det.add(rec(t + 100.0, 1.0))
    assert det.shutoff == {1}


def test_mean_exactly_at_min_duration_stays_on():
    # the § 5.3 comparison is strict <: a mean of exactly
    # ``min_duration_us`` keeps the sensor
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(10):
        t += 100.0
        det.add(rec(t, 5.0))
    assert det.shutoff == set()


def test_mean_just_below_min_duration_shuts_off():
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(10):
        t += 100.0
        det.add(rec(t, 5.0 - 1e-9))
    assert det.shutoff == {1}


def test_shutoff_decision_is_one_shot():
    # a sensor that survives record #shutoff_after is never revisited,
    # even if every later record is far below the minimum
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(10):
        t += 100.0
        det.add(rec(t, 50.0))
    for _ in range(40):
        t += 100.0
        det.add(rec(t, 1.0))
    assert det.shutoff == set()


def test_long_sensor_not_shut_off():
    det = make(min_duration_us=5.0, shutoff_after=10)
    t = 0.0
    for _ in range(30):
        t += 100.0
        det.add(rec(t, 50.0))
    assert det.shutoff == set()


def test_events_carry_slice_start():
    det = make(slice_us=1000.0)
    det.add(rec(500.0, 10.0))
    det.add(rec(1500.0, 100.0))  # slice 0 closes, slice 1 opens
    events = det.finish()
    assert len(det.events) == 1
    assert det.events[0].t_start == pytest.approx(1000.0)


def test_summaries_accumulate():
    det = make(slice_us=100.0)
    t = 0.0
    for _ in range(20):
        t += 100.0
        det.add(rec(t, 10.0))
    det.finish()
    assert len(det.summaries) == 20


def test_multiple_sensors_tracked_separately():
    det = make()
    t = 0.0
    for i in range(20):
        t += 100.0
        det.add(rec(t, 10.0, sensor_id=1))
        det.add(rec(t, 99.0, sensor_id=2))
    det.finish()
    # Each sensor has its own standard: neither generates events.
    assert det.events == []


def test_grouped_detection_uses_group_history():
    from repro.runtime.dynrules import ThresholdMiss

    det = OneRank(
        config=DetectorConfig(slice_us=100.0, threshold=0.7, min_duration_us=0.0),
        rule=ThresholdMiss(0.5),
    )
    t = 0.0
    for i in range(20):
        t += 100.0
        det.add(rec(t, 10.0, miss=0.1))
        t += 100.0
        det.add(rec(t, 30.0, miss=0.9))  # slow but consistent in H group
    det.finish()
    assert det.events == []
