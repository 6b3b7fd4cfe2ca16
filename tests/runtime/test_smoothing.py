"""Slice-aggregation tests (§5.1), run on the production detector: a
one-rank ``BatchDetector`` fed through ``add``."""

import pytest

from repro.runtime.records import SensorRecord
from repro.runtime.dynrules import ThresholdMiss
from repro.sensors.model import SensorType
from tests.runtime.detector_oracle import OneRankSlices


def rec(t_end, duration=5.0, sensor_id=1, miss=0.1, rank=0):
    return SensorRecord(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=SensorType.COMPUTATION,
        t_start=t_end - duration,
        t_end=t_end,
        instructions=100.0,
        cache_miss_rate=miss,
    )


def test_records_within_slice_accumulate():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    assert list(agg.add(rec(100.0))) == []
    assert list(agg.add(rec(500.0))) == []
    assert list(agg.add(rec(900.0))) == []
    out = agg.flush()
    assert len(out) == 1
    assert out[0].count == 3


def test_slice_boundary_emits():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(500.0, duration=4.0))
    emitted = agg.add(rec(1500.0, duration=8.0))
    assert len(emitted) == 1
    assert emitted[0].slice_index == 0
    assert emitted[0].mean_duration == pytest.approx(4.0)
    final = agg.flush()
    assert final[0].slice_index == 1
    assert final[0].mean_duration == pytest.approx(8.0)


def test_mean_duration_averages():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(100.0, duration=2.0))
    agg.add(rec(200.0, duration=4.0))
    out = agg.flush()
    assert out[0].mean_duration == pytest.approx(3.0)


def test_mean_cache_miss_averages():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(100.0, miss=0.2))
    agg.add(rec(200.0, miss=0.4))
    assert agg.flush()[0].mean_cache_miss == pytest.approx(0.3)


def test_sensors_aggregate_independently():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(100.0, sensor_id=1))
    agg.add(rec(200.0, sensor_id=2))
    out = agg.flush()
    assert {s.sensor_id for s in out} == {1, 2}


def test_groups_aggregate_independently():
    agg = OneRankSlices(rank=0, slice_us=1000.0, rule=ThresholdMiss(0.5))
    agg.add(rec(100.0, miss=0.1))
    agg.add(rec(200.0, miss=0.9))
    out = agg.flush()
    assert {s.group for s in out} == {"L", "H"}


def test_gap_slices_skipped():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(500.0))
    emitted = agg.add(rec(5500.0))
    assert emitted[0].slice_index == 0
    assert agg.flush()[0].slice_index == 5


def test_slice_start_time():
    agg = OneRankSlices(rank=0, slice_us=250.0)
    agg.add(rec(600.0))
    out = agg.flush()
    assert out[0].t_slice_start == pytest.approx(500.0)


def test_flush_clears_state():
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    agg.add(rec(100.0))
    agg.flush()
    assert agg.flush() == []


def test_summaries_pinned_across_rollovers():
    """Exact summary values across several slices (hot-path regression pin).

    The in-place accumulator must produce summaries identical to the naive
    one-accumulator-per-record implementation: same slice indices, counts
    and exact means, with the no-rollover path returning an empty result.
    """
    agg = OneRankSlices(rank=3, slice_us=1000.0)
    out = []
    stream = [
        (100.0, 2.0, 0.1),
        (700.0, 4.0, 0.3),
        (1200.0, 6.0, 0.5),   # rolls slice 0 -> 1
        (1800.0, 10.0, 0.7),
        (3100.0, 1.0, 0.2),   # skips slice 2 entirely
    ]
    for t_end, duration, miss in stream:
        emitted = agg.add(rec(t_end, duration=duration, miss=miss))
        if t_end not in (1200.0, 3100.0):
            assert not emitted
        out.extend(emitted)
    out.extend(agg.flush())
    assert [(s.slice_index, s.count, s.mean_duration, s.mean_cache_miss, s.t_slice_start)
            for s in out] == [
        (0, 2, 3.0, 0.2, 0.0),
        (1, 2, 8.0, 0.6, 1000.0),
        (3, 1, 1.0, 0.2, 3000.0),
    ]
    assert all(s.rank == 3 for s in out)


def test_smoothing_reduces_variance():
    """The Fig. 12 effect: slice averages are much less spread than raw."""
    import numpy as np

    rng = np.random.default_rng(1)
    agg = OneRankSlices(rank=0, slice_us=1000.0)
    raw = []
    out = []
    t = 0.0
    for _ in range(5000):
        duration = float(10.0 * rng.lognormal(0.0, 0.4))
        t += duration
        raw.append(duration)
        out.extend(agg.add(rec(t, duration=duration)))
    out.extend(agg.flush())
    smooth = [s.mean_duration for s in out]
    assert np.std(smooth) < np.std(raw) / 2
