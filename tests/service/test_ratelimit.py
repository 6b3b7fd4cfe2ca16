"""Per-tenant token-bucket rate limiting at the ingest front.

The service can be built with ``rate_limit_rows_per_ms``: each tenant
then gets a token bucket (rows per virtual millisecond, burst capacity
``rate_burst_rows``, default 4x the rate).  Over-rate batches are
rejected through the same retry-after machinery as back-pressure — the
sequence number stays unconsumed, the transport re-times its backoff to
the bucket's refill, and watermark dedup upholds exactly-once effect.
Tokens are debited only on admission, so rejections never burn budget.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs import Obs
from repro.runtime.channel import perfect_channel
from repro.runtime.transport import ReliableTransport, RetryPolicy
from repro.sensors.model import SensorType
from repro.service import AnalysisService
from tests.service.util import make_summary


def _service(rate=1.0, burst=None, obs=None, **kw):
    return AnalysisService(
        1,
        window_us=2000.0,
        rate_limit_rows_per_ms=rate,
        rate_burst_rows=burst,
        obs=obs,
        **kw,
    )


def _batch(rank, slices, sensor=1):
    return [
        make_summary(rank, sensor, SensorType.COMPUTATION, "", s, 10.0 + s)
        for s in slices
    ]


def test_rate_limit_config_validation():
    with pytest.raises(ReproError):
        AnalysisService(1, rate_limit_rows_per_ms=0.0)
    with pytest.raises(ReproError):
        AnalysisService(1, rate_limit_rows_per_ms=-1.0)


def test_default_burst_is_four_x_rate():
    service = _service(rate=2.5)
    assert service.rate_burst_rows == 10.0
    assert _service(rate=2.5, burst=3.0).rate_burst_rows == 3.0
    # No rate limit -> no burst either.
    plain = AnalysisService(1)
    assert plain.rate_limit_rows_per_ms is None
    assert plain.rate_burst_rows is None


def test_over_rate_batch_rejected_with_refill_timed_hint():
    # burst=4 rows, rate=1 row/ms.  The first 4-row batch drains the
    # bucket at virtual t=3000 (summaries carry their slice timestamps);
    # the next 1-row batch at the same instant overdraws by one row, so
    # the hint lands exactly 1 ms out.
    service = _service(rate=1.0, burst=4.0)
    port = service.register_job(0, 1)
    assert port.receive_batch(0, _batch(0, [0, 1, 2, 3]), seq=0) is True
    assert port.receive_batch(0, _batch(0, [3], sensor=2), seq=1) is False
    assert port.ratelimited_batches == 1
    assert port.rejected_batches == 1
    assert not port.is_acked(0, 1)
    hint = port.pop_retry_hint(0, 1)
    assert hint == pytest.approx(4000.0)
    # At the hinted time the bucket has refilled enough to admit it.
    service.pump(hint)
    assert port.receive_batch(0, _batch(0, [3], sensor=2), seq=1) is True
    service.finish()
    assert port.stored_summaries == 5
    assert port.ack_watermark(0) == 1


def test_rejection_does_not_burn_tokens():
    service = _service(rate=1.0, burst=4.0)
    port = service.register_job(0, 1)
    # Pin the clock at slice 0 (distinct sensors, so nothing dedups)
    # with an admitted 2-row batch, then overdraw twice: the rejections
    # leave the bucket untouched, so a batch that still fits the
    # remaining 2 tokens passes immediately.
    def rows(sensors):
        return [
            make_summary(0, s, SensorType.COMPUTATION, "", 0, 10.0) for s in sensors
        ]

    assert port.receive_batch(0, rows([1, 2]), seq=0) is True
    assert port.receive_batch(0, rows([3, 4, 5]), seq=1) is False
    assert port.receive_batch(0, rows([3, 4, 5]), seq=1) is False
    assert port.ratelimited_batches == 2
    assert port.receive_batch(0, rows([3, 4]), seq=1) is True
    service.finish()
    assert port.stored_summaries == 4


def test_transport_paces_to_the_bucket_and_loses_nothing():
    obs = Obs.create()
    # 2-row batches arrive ~2000 virtual us apart but the bucket refills
    # only one row per 2000 us, so roughly every other batch is deferred.
    service = _service(rate=0.5, burst=2.0, obs=obs)
    port = service.register_job(0, 1)
    transport = ReliableTransport(
        server=port,  # type: ignore[arg-type]
        channel=perfect_channel(),
        policy=RetryPolicy(timeout_us=100.0, max_attempts=80),
        metrics=obs.metrics,
    )
    n_batches = 6
    for i in range(n_batches):
        transport.send_batch(0, _batch(0, [2 * i, 2 * i + 1]), now=i * 10.0)
    while transport._pending or transport.channel.pending():
        targets = [p.next_retry_at for p in transport._pending.values()]
        due = transport.channel.next_due()
        if due is not None:
            targets.append(due)
        if not targets:
            break
        t = min(targets)
        service.pump(t)
        transport.pump(t)
    service.finish()
    # Exactly-once effect despite repeated rate rejections.
    assert port.stored_summaries == 2 * n_batches
    assert port.ack_watermark(0) == n_batches - 1
    assert transport.gave_up == {}
    counters = obs.metrics.as_dict()["counters"]
    assert counters.get("service.ratelimit.rejected", 0) == port.ratelimited_batches
    assert port.ratelimited_batches >= 1
    assert port._retry_hints == {}


def test_buckets_are_per_tenant():
    service = _service(rate=1.0, burst=4.0)
    a = service.register_job(1, 1)
    b = service.register_job(2, 1)
    # Tenant A drains its bucket; tenant B's is untouched.
    assert a.receive_batch(0, _batch(0, [0, 1, 2, 3]), seq=0) is True
    assert a.receive_batch(0, _batch(0, [3]), seq=1) is False
    assert b.receive_batch(0, _batch(0, [0, 1, 2, 3]), seq=0) is True
    assert a.ratelimited_batches == 1
    assert b.ratelimited_batches == 0


def test_unsequenced_ingest_bypasses_rate_limit():
    # Direct deliveries have no retry path; like admission control, the
    # bucket never rejects them.
    service = _service(rate=1.0, burst=1.0)
    port = service.register_job(0, 1)
    for i in range(3):
        assert port.receive_batch(0, _batch(0, [2 * i, 2 * i + 1])) is True
    assert port.ratelimited_batches == 0
    service.finish()
    assert port.stored_summaries == 6
