"""ShardCostModel and the shard's virtual clock on edge batches.

``ShardWorker.enqueue`` accepts a zero-row sub-batch, so the cost model
must stay finite and monotone-sane when ``rows == 0`` — a degenerate
estimate would corrupt ``busy_until`` and every retry-after hint derived
from it.
"""

from __future__ import annotations

from repro.service.shard import ShardCostModel, ShardWorker


class _NullServer:
    """Accepts any batch; the cost path is what is under test."""

    def receive_batch(self, rank, rows):
        return True


class _NullPort:
    job_id = 0
    store = _NullServer()


def _worker(cost: ShardCostModel) -> ShardWorker:
    return ShardWorker(shard_id=0, cost=cost)


def test_deterministic_estimate_of_zero_rows_is_base_cost():
    assert ShardCostModel(base_us=5.0, per_row_us=2.0).estimate(0) == 5.0
    assert ShardCostModel().estimate(0) == 0.0  # default: free
    assert ShardCostModel(per_row_us=3.0).estimate(4) == 12.0


def test_retry_after_stays_strictly_future_with_zero_row_head():
    now = 50.0
    # Zero-cost model: projected completion == enqueue time, so the
    # strictly-future clamp must kick in.
    worker = _worker(ShardCostModel())
    worker.enqueue(_NullPort, 0, [], now=now)
    assert worker.retry_after(now) >= now + 1.0


def test_busy_until_never_regresses_across_zero_row_applies():
    worker = _worker(ShardCostModel(base_us=2.0))
    worker.enqueue(_NullPort, 0, [], now=10.0)
    worker.enqueue(_NullPort, 0, [], now=10.0)
    worker.drain()
    first = worker.busy_until
    assert first == 14.0  # two base-cost applies back to back
    worker.enqueue(_NullPort, 0, [], now=0.0)  # stale enqueue time
    worker.drain()
    assert worker.busy_until >= first  # clock is monotone regardless
