"""Variance-report tests (§5.5)."""

import numpy as np
import pytest

from repro.runtime.report import VarianceRegion, VarianceReport, cluster_low_cells
from repro.sensors.model import SensorType


def test_cluster_empty_matrix():
    matrix = np.ones((4, 4))
    assert cluster_low_cells(matrix, SensorType.COMPUTATION, 1000.0) == []


def test_cluster_single_block():
    matrix = np.ones((6, 10))
    matrix[2:4, 3:6] = 0.4
    regions = cluster_low_cells(matrix, SensorType.COMPUTATION, 1000.0)
    assert len(regions) == 1
    region = regions[0]
    assert (region.rank_lo, region.rank_hi) == (2, 3)
    assert region.t_start_us == pytest.approx(3000.0)
    assert region.t_end_us == pytest.approx(6000.0)
    assert region.cells == 6
    assert region.mean_performance == pytest.approx(0.4)


def test_cluster_two_disjoint_blocks():
    matrix = np.ones((8, 8))
    matrix[0:2, 0:2] = 0.3
    matrix[5:7, 5:7] = 0.5
    regions = cluster_low_cells(matrix, SensorType.NETWORK, 1000.0)
    assert len(regions) == 2


def test_cluster_ignores_nan():
    matrix = np.full((4, 4), np.nan)
    matrix[1, 1] = 0.2
    regions = cluster_low_cells(matrix, SensorType.COMPUTATION, 1000.0)
    assert len(regions) == 1
    assert regions[0].cells == 1


def test_regions_sorted_by_size():
    matrix = np.ones((8, 8))
    matrix[0, 0] = 0.3
    matrix[4:7, 4:7] = 0.3
    regions = cluster_low_cells(matrix, SensorType.COMPUTATION, 1000.0)
    assert regions[0].cells > regions[1].cells


def test_region_describe_mentions_ranks_and_time():
    region = VarianceRegion(
        sensor_type=SensorType.COMPUTATION,
        rank_lo=24,
        rank_hi=47,
        t_start_us=34_000_000.0,
        t_end_us=44_000_000.0,
        mean_performance=0.5,
        cells=100,
    )
    text = region.describe()
    assert "24-47" in text and "34.0s" in text


def test_data_rate_computation():
    report = VarianceReport(n_ranks=128, total_time_us=140e6, bytes_to_server=8_800_000)
    # The paper's example: ~8.8 MB over 140 s and 128 processes = 0.5 KB/s.
    assert report.data_rate_kb_per_s() == pytest.approx(0.48, abs=0.05)


def test_suspect_ranks():
    report = VarianceReport(n_ranks=4, total_time_us=1e6)
    report.rank_means[SensorType.COMPUTATION] = np.array([1.0, 0.95, 0.5, 0.97])
    assert report.suspect_ranks(SensorType.COMPUTATION) == [2]


def test_suspect_ranks_empty_without_data():
    report = VarianceReport(n_ranks=4, total_time_us=1e6)
    assert report.suspect_ranks(SensorType.IO) == []


def test_summary_text():
    report = VarianceReport(n_ranks=8, total_time_us=2e6, intra_events=3, inter_events=1)
    text = report.summary()
    assert "8 ranks" in text and "intra-process variance events: 3" in text


def _scan_every_cell(matrix, sensor_type, window_us, threshold=0.7):
    """The clustering as a row-major scan of every cell: the oracle for the
    low-cell walk (same seeds, same flood order, same means)."""
    low = np.isfinite(matrix) & (matrix < threshold)
    visited = np.zeros_like(low)
    n_ranks, n_windows = low.shape
    regions = []
    for r in range(n_ranks):
        for w in range(n_windows):
            if not low[r, w] or visited[r, w]:
                continue
            stack, cells = [(r, w)], []
            visited[r, w] = True
            while stack:
                cr, cw = stack.pop()
                cells.append((cr, cw))
                for nr, nw in ((cr - 1, cw), (cr + 1, cw), (cr, cw - 1), (cr, cw + 1)):
                    if 0 <= nr < n_ranks and 0 <= nw < n_windows and low[nr, nw] and not visited[nr, nw]:
                        visited[nr, nw] = True
                        stack.append((nr, nw))
            rows, cols = [c[0] for c in cells], [c[1] for c in cells]
            regions.append(
                VarianceRegion(
                    sensor_type, min(rows), max(rows), min(cols) * window_us,
                    (max(cols) + 1) * window_us, float(np.mean([matrix[c] for c in cells])),
                    len(cells),
                )
            )
    regions.sort(key=lambda region: -region.cells)
    return regions


@pytest.mark.parametrize("seed", range(20))
def test_cluster_matches_a_scan_of_every_cell(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 1.4, size=(int(rng.integers(1, 24)), int(rng.integers(1, 24))))
    matrix[rng.random(matrix.shape) < 0.1] = np.nan
    assert cluster_low_cells(matrix, SensorType.NETWORK, 1000.0) == _scan_every_cell(
        matrix, SensorType.NETWORK, 1000.0
    )
