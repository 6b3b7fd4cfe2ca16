"""ShardCostModel and the shard's virtual clock on edge batches.

``ShardWorker.enqueue`` accepts a zero-row sub-batch, so the cost model
must stay finite and monotone-sane when ``rows == 0`` — a degenerate
estimate would corrupt ``busy_until`` and every retry-after hint derived
from it.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ReproError
from repro.service import AnalysisService
from repro.service.shard import ShardCostModel, ShardWorker


class _NullPort:
    """Takes any sub-batch; the cost path is what is under test."""

    job_id = 0

    @staticmethod
    def apply(rank, rows):
        pass


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
    worker.process_due(math.inf)
    first = worker.busy_until
    assert first == 14.0  # two base-cost applies back to back
    worker.enqueue(_NullPort, 0, [], now=0.0)  # stale enqueue time
    worker.process_due(math.inf)
    assert worker.busy_until >= first  # clock is monotone regardless


def test_apply_span_encloses_the_ingest():
    """The shard's apply span is open while the store ingests, so the
    ingest time books to the shard and not to the span's parent."""
    from repro.obs import Obs

    obs = Obs.create()
    open_during_ingest = []

    class _Port:
        job_id = 4

        @staticmethod
        def apply(rank, rows):
            open_during_ingest.append(obs.tracer.open_depth)

    worker = ShardWorker(shard_id=2, obs=obs)
    worker.enqueue(_Port, 1, [], now=0.0)
    worker.process_due(math.inf)
    assert open_during_ingest == [1]
    (record,) = obs.tracer.records()
    assert record.name == "service.shard.2.apply"
    assert record.attrs == {"job": 4, "rank": 1, "rows": 0}


@pytest.mark.parametrize(
    "costs",
    [{"base_us": -50.0}, {"per_row_us": -1.0}, {"base_us": math.nan},
     {"per_row_us": math.nan}, {"base_us": math.inf}],
)
def test_negative_or_non_finite_costs_are_refused(costs):
    """A NaN cost would freeze ``busy_until`` at NaN and hand NaN retry
    hints to transports; a negative one finishes a batch before it was
    enqueued."""
    with pytest.raises(ReproError, match="shard cost"):
        ShardCostModel(**costs)


def test_a_queue_must_hold_a_batch():
    """``queue_limit=0`` would reject every sequenced batch until the
    transport gave up, silently degrading every rank."""
    with pytest.raises(ReproError, match="queue_limit"):
        AnalysisService(2, queue_limit=0)
    with pytest.raises(ReproError, match="queue_limit"):
        ShardWorker(shard_id=0, queue_limit=-1)
