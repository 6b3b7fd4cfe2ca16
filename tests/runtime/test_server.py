"""Analysis-server tests (§5.4-§5.5)."""

import numpy as np
import pytest

from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType


def summary(rank, slice_index, duration, sensor_id=1, stype=SensorType.COMPUTATION, group=""):
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=4,
        mean_cache_miss=0.1,
    )


def test_bytes_accounting():
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0), summary(0, 1, 10.0)])
    assert server.batches_received == 1
    assert server.summaries_received == 2
    assert server.bytes_received == 8 + 2 * SliceSummary.WIRE_BYTES


def test_matrix_shape_and_values():
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0), summary(0, 1, 10.0)])
    server.receive_batch(1, [summary(1, 0, 10.0), summary(1, 1, 20.0)])
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert matrix.shape == (2, 2)
    assert matrix[0, 0] == pytest.approx(1.0)
    assert matrix[1, 1] == pytest.approx(0.5)


def test_matrix_nan_for_missing_cells():
    server = AnalysisServer(n_ranks=3, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0)])
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert np.isnan(matrix[1, 0]) and np.isnan(matrix[2, 0])


def test_types_kept_separate():
    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0, sensor_id=1, stype=SensorType.COMPUTATION)])
    server.receive_batch(0, [summary(0, 0, 30.0, sensor_id=2, stype=SensorType.NETWORK)])
    comp = server.performance_matrix(SensorType.COMPUTATION)
    net = server.performance_matrix(SensorType.NETWORK)
    assert np.isfinite(comp[0, 0]) and np.isfinite(net[0, 0])


def test_inter_process_detection_flags_slow_rank():
    server = AnalysisServer(n_ranks=4, window_us=1000.0, threshold=0.7)
    for rank in range(4):
        duration = 30.0 if rank == 2 else 10.0
        server.receive_batch(rank, [summary(rank, 0, duration)])
    events = server.detect_inter_process()
    assert len(events) == 1
    assert events[0].slow_ranks == (2,)
    assert events[0].worst_performance == pytest.approx(10.0 / 30.0)


def test_inter_process_no_event_when_uniform():
    server = AnalysisServer(n_ranks=4, window_us=1000.0)
    for rank in range(4):
        server.receive_batch(rank, [summary(rank, 0, 10.0)])
    assert server.detect_inter_process() == []


def test_inter_process_requires_min_ranks():
    server = AnalysisServer(n_ranks=4, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0)])
    assert server.detect_inter_process(min_ranks=2) == []


def test_mean_rank_performance():
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0), summary(0, 1, 10.0)])
    server.receive_batch(1, [summary(1, 0, 20.0), summary(1, 1, 20.0)])
    means = server.mean_rank_performance(SensorType.COMPUTATION)
    assert means[0] > means[1]


def test_window_mapping():
    server = AnalysisServer(n_ranks=1, window_us=2000.0)
    server.receive_batch(0, [summary(0, 0, 10.0), summary(0, 3, 10.0)])
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    # Slices 0 and 3 (at 0us and 3000us) land in windows 0 and 1.
    assert matrix.shape == (1, 2)


# -- idempotent, watermark-based ingestion -----------------------------------


def test_sequenced_duplicate_batch_rejected():
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    batch = [summary(0, 0, 10.0)]
    assert server.receive_batch(0, batch, seq=0) is True
    before = server.performance_matrix(SensorType.COMPUTATION).copy()
    assert server.receive_batch(0, batch, seq=0) is False
    assert server.duplicate_batches == 1
    after = server.performance_matrix(SensorType.COMPUTATION)
    assert np.array_equal(before, after, equal_nan=True)


def test_watermark_advances_over_out_of_order_seqs():
    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    assert not server.is_acked(0, 0)  # no watermark yet
    server.receive_batch(0, [summary(0, 0, 10.0)], seq=0)
    server.receive_batch(0, [summary(0, 2, 10.0)], seq=2)
    assert server.is_acked(0, 0) and not server.is_acked(0, 1)  # watermark 0
    assert server.is_acked(0, 2)
    server.receive_batch(0, [summary(0, 1, 10.0)], seq=1)
    assert all(server.is_acked(0, s) for s in range(3)) and not server.is_acked(0, 3)
    # Everything at or below the watermark is a duplicate now.
    assert server.receive_batch(0, [summary(0, 1, 10.0)], seq=1) is False


def test_summary_identity_dedup_without_seq():
    """Even unsequenced redelivery (spool re-read) cannot double-count."""
    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    server.receive_batch(0, [summary(0, 0, 10.0)])
    server.receive_batch(0, [summary(0, 0, 10.0)])
    assert server.duplicate_summaries == 1
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert matrix[0, 0] == pytest.approx(1.0)


def test_matrices_invariant_under_batch_permutation():
    batches = [
        (rank, [summary(rank, s, 10.0 + 3 * rank + s) for s in range(4)], seq)
        for seq, rank in enumerate([0, 1, 2, 3])
    ]
    in_order = AnalysisServer(n_ranks=4, window_us=1000.0)
    for rank, batch, _ in batches:
        in_order.receive_batch(rank, batch)
    shuffled = AnalysisServer(n_ranks=4, window_us=1000.0)
    for rank, batch, _ in reversed(batches):
        shuffled.receive_batch(rank, batch)
    a = in_order.performance_matrix(SensorType.COMPUTATION)
    b = shuffled.performance_matrix(SensorType.COMPUTATION)
    assert np.array_equal(a, b, equal_nan=True)
    assert in_order.detect_inter_process() == shuffled.detect_inter_process()


def test_inter_event_coverage_fraction():
    server = AnalysisServer(n_ranks=8, window_us=1000.0)
    for rank in range(4):  # only half the ranks report
        duration = 30.0 if rank == 2 else 10.0
        server.receive_batch(rank, [summary(rank, 0, duration)])
    (event,) = server.detect_inter_process()
    assert event.coverage == pytest.approx(4 / 8)


def test_silent_ranks_and_degraded_marking():
    server = AnalysisServer(n_ranks=3, window_us=1000.0, batch_period_us=1000.0)
    server.receive_batch(0, [summary(0, 9, 10.0)])  # fresh at t=9000
    server.receive_batch(1, [summary(1, 0, 10.0)])  # stale
    assert server.silent_ranks(now=9000.0) == [1, 2]
    server.mark_degraded(2)
    assert server.degraded == {2}
    # Rendering with degraded/missing ranks keeps NaN rows, no crash.
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert np.isnan(matrix[2]).all()
