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


def test_apply_span_encloses_the_ingest():
    """The shard's apply span is open while the store ingests, so the
    ingest time books to the shard and not to the span's parent."""
    from repro.obs import Obs

    obs = Obs.create()
    open_during_ingest = []

    class _Store:
        def receive_batch(self, rank, rows):
            open_during_ingest.append(obs.tracer.open_depth)
            return True

    class _Port:
        job_id = 4
        store = _Store()

    worker = ShardWorker(shard_id=2, obs=obs)
    worker.enqueue(_Port, 1, [], now=0.0)
    worker.drain()
    assert open_during_ingest == [1]
    (record,) = obs.tracer.records()
    assert record.name == "service.shard.2.apply"
    assert record.attrs == {"job": 4, "rank": 1, "rows": 0}
