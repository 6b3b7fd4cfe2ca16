"""Dynamic-rule tests (§3.1 dynamic rules, Fig. 13)."""

import pytest

from repro.runtime.dynrules import CacheMissBands, NoGrouping, ThresholdMiss
from repro.runtime.records import SensorRecord
from repro.sensors.model import SensorType


def rec(miss):
    return SensorRecord(
        rank=0,
        sensor_id=1,
        sensor_type=SensorType.COMPUTATION,
        t_start=0.0,
        t_end=1.0,
        instructions=10.0,
        cache_miss_rate=miss,
    )


def test_no_grouping_single_group():
    rule = NoGrouping()
    assert rule.group(rec(0.01)) == rule.group(rec(0.9)) == ""


def test_cache_miss_bands():
    rule = CacheMissBands(band_width=0.10)
    assert rule.group(rec(0.05)) == "miss0"
    assert rule.group(rec(0.15)) == "miss1"
    assert rule.group(rec(0.95)) == "miss9"


def test_band_width_validation():
    with pytest.raises(ValueError):
        CacheMissBands(band_width=0.0)
    with pytest.raises(ValueError):
        CacheMissBands(band_width=1.5)


def test_threshold_rule_binary():
    rule = ThresholdMiss(threshold=0.5)
    assert rule.group(rec(0.2)) == "L"
    assert rule.group(rec(0.7)) == "H"


def irec(instructions):
    return SensorRecord(
        rank=0,
        sensor_id=1,
        sensor_type=SensorType.COMPUTATION,
        t_start=0.0,
        t_end=1.0,
        instructions=instructions,
        cache_miss_rate=0.1,
    )


def test_cache_miss_band_edges():
    # band_width 0.25 is exactly representable: edges land exactly on
    # band starts, and a rate of exactly 1.0 maps to the final band.
    rule = CacheMissBands(band_width=0.25)
    assert rule.group(rec(0.0)) == "miss0"
    assert rule.group(rec(0.25)) == "miss1"
    assert rule.group(rec(0.5)) == "miss2"
    assert rule.group(rec(0.75)) == "miss3"
    assert rule.group(rec(1.0)) == "miss4"


def test_cache_miss_rate_one_with_default_bands():
    # rate == 1.0 must classify (not raise / fall off the end); with the
    # non-representable default width the band index is whatever float
    # division yields, and it must agree with neighbouring rates.
    rule = CacheMissBands()
    assert rule.group(rec(1.0)) == f"miss{int(1.0 / 0.10)}"
    assert rule.group(rec(0.999)) == "miss9"


def test_threshold_exactly_at_threshold_is_high():
    # the comparison is >=: the boundary record lands in the H group
    rule = ThresholdMiss(threshold=0.5)
    assert rule.group(rec(0.5)) == "H"
    assert rule.group(rec(0.49999999)) == "L"


def test_instruction_bands_validation():
    from repro.runtime.dynrules import InstructionBands

    with pytest.raises(ValueError):
        InstructionBands(band_width=0.0)
    with pytest.raises(ValueError):
        InstructionBands(band_width=1.5)
    assert InstructionBands(0.10).name == "instruction-bands(10%)"


def test_instruction_bands_tiny_counts_collapse():
    from repro.runtime.dynrules import InstructionBands

    rule = InstructionBands()
    # counts below one instruction (and exactly one) share band i0: the
    # log is undefined/zero there, not a distinct workload class
    assert rule.group(irec(0.0)) == "i0"
    assert rule.group(irec(0.5)) == "i0"
    assert rule.group(irec(1.0)) == "i0"


def test_instruction_bands_group_near_constant_workloads():
    from repro.runtime.dynrules import InstructionBands

    rule = InstructionBands(band_width=0.10)
    # within 10% of each other -> same band; an order of magnitude apart
    # -> different bands, and band index grows with the count
    assert rule.group(irec(1000.0)) == rule.group(irec(1040.0))
    assert rule.group(irec(1000.0)) != rule.group(irec(10_000.0))
    bands = [int(rule.group(irec(10.0**k))[1:]) for k in range(1, 6)]
    assert bands == sorted(bands) and len(set(bands)) == len(bands)


def test_fig13_scenario():
    """Fig. 13: wall times [3,3,7,3,5,3,7,3,3,3], miss rates H for the 7s
    and record 4's 5s is a low-miss outlier.

    Case 1 (no grouping): records 2, 4, 6 score below threshold.
    Case 2 (grouped): only record 4 is a variance in the L group; the H
    group (both 7s) shows none.
    """
    from repro.runtime.detector import DetectorConfig
    from tests.runtime.detector_oracle import OneRank

    walls = [3.0, 3.0, 7.0, 3.0, 5.0, 3.0, 7.0, 3.0, 3.0, 3.0]
    misses = [0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1]

    def feed(rule):
        det = OneRank(
            config=DetectorConfig(slice_us=10.0, threshold=0.7, min_duration_us=0.0),
            rule=rule,
        )
        t = 0.0
        for wall, miss in zip(walls, misses):
            t += 10.0  # one record per slice
            det.add(
                SensorRecord(
                    rank=0,
                    sensor_id=1,
                    sensor_type=SensorType.COMPUTATION,
                    t_start=t - wall,
                    t_end=t,
                    instructions=10.0,
                    cache_miss_rate=miss,
                )
            )
        det.finish()
        return det.events

    case1 = feed(NoGrouping())
    # Records 2, 4, 6 are slower than the standard 3.0 by > threshold.
    assert len(case1) == 3

    case2 = feed(ThresholdMiss(threshold=0.5))
    # Grouped: the two 7s form their own (consistent) group; only the 5
    # in the low-miss group remains a variance.
    assert len(case2) == 1
    assert case2[0].group == "L"
