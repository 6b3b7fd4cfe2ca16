"""Figure 13: online detection with and without a dynamic rule.

The paper's worked example: ten records with wall times
[3,3,7,3,5,3,7,3,3,3] where the 7s coincide with high cache-miss readings.

* Case 1 (cache miss expected constant): records 2, 4 and 6 are variances.
* Case 2 (cache miss as a dynamic rule): the high-miss records form their
  own group and stop looking anomalous; only record 4 (slow *within* the
  low-miss group) remains.
"""

from benchmarks.conftest import once
from repro.runtime.batch_detector import BatchDetector
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import NoGrouping, ThresholdMiss
from repro.sensors.model import SensorType

WALLS = [3.0, 3.0, 7.0, 3.0, 5.0, 3.0, 7.0, 3.0, 3.0, 3.0]
MISSES = [0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1]


def run_detector(rule):
    detector = BatchDetector(
        1,
        config=DetectorConfig(slice_us=10.0, threshold=0.7, min_duration_us=0.0),
        rule=rule,
    )
    t = 0.0
    for wall, miss in zip(WALLS, MISSES):
        t += 10.0  # one record per slice, as in the paper's example
        detector.add(0, 1, SensorType.COMPUTATION, t - wall, t, 30.0, miss)
    detector.finish(0)
    return detector.events[0]


def _record_ids(events):
    # Record i ends at t = (i+1)*10, landing in slice i+1.
    return sorted(int(e.t_start // 10.0) - 1 for e in events)


def test_fig13_case1_constant_expectation(benchmark):
    events = once(benchmark, lambda: run_detector(NoGrouping()))
    records = _record_ids(events)
    print(f"\nFig. 13 case 1 — variances at records {records} (paper: 2, 4, 6)")
    assert records == [2, 4, 6]


def test_fig13_case2_dynamic_rule(benchmark):
    events = once(benchmark, lambda: run_detector(ThresholdMiss(0.5)))
    records = _record_ids(events)
    groups = {e.group for e in events}
    print(f"\nFig. 13 case 2 — variances at records {records} in groups {groups} (paper: record 4, low-miss group)")
    assert records == [4]
    assert groups == {"L"}


def test_fig13_scaled_stream(benchmark):
    """The same contrast on a 10,000-record generated stream."""
    import numpy as np

    rng = np.random.default_rng(42)

    def build_events(rule):
        detector = BatchDetector(
            1,
            config=DetectorConfig(slice_us=100.0, threshold=0.7, min_duration_us=0.0),
            rule=rule,
        )
        t = 0.0
        for i in range(10_000):
            high_miss = rng.random() < 0.2
            wall = 7.0 if high_miss else 3.0
            wall *= 1.0 + 0.02 * rng.random()
            miss = 0.9 if high_miss else 0.1
            t += 100.0
            detector.add(0, 1, SensorType.COMPUTATION, t - wall, t, 30.0, miss)
        detector.finish(0)
        return detector.events[0]

    ungrouped = build_events(NoGrouping())
    grouped = once(benchmark, lambda: build_events(ThresholdMiss(0.5)))
    print(
        f"\nFig. 13 at scale — false alarms without rule: {len(ungrouped)}, "
        f"with cache-miss rule: {len(grouped)}"
    )
    # Without the rule every high-miss record is an "anomaly"; with it the
    # stream is clean.
    assert len(ungrouped) > 1000
    assert len(grouped) == 0
