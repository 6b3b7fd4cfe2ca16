"""Back-pressure unit tests: bounded queues, retry-after, exactly-once.

A slow shard with a full bounded queue must (a) reject with a
retry-after admission decision that leaves the sequence number
unconsumed, (b) have ``ReliableTransport`` honor that hint instead of
its own backoff, (c) never drop or double-apply a batch (watermark
dedup holds end to end), and (d) account every rejection in the
``service.backpressure.*`` counters.
"""

from __future__ import annotations

from repro.obs import Obs
from repro.runtime.channel import perfect_channel
from repro.runtime.transport import ReliableTransport, RetryPolicy
from repro.sensors.model import SensorType
from repro.service import AnalysisService, ShardCostModel
from tests.service.util import make_summary


def _slow_service(base_us=10_000.0, queue_limit=1, n_shards=1, obs=None):
    return AnalysisService(
        n_shards,
        window_us=2000.0,
        queue_limit=queue_limit,
        cost=ShardCostModel(base_us=base_us),
        obs=obs,
    )


def _batch(rank, slices, sensor=1):
    return [
        make_summary(rank, sensor, SensorType.COMPUTATION, "", s, 10.0 + s)
        for s in slices
    ]


def _drive_to_quiescence(service, transport):
    """The api-layer drive loop: pump shards, then the transport, at each
    next event time until nothing is pending."""
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


def test_full_queue_rejects_with_retry_after_and_keeps_seq_unconsumed():
    service = _slow_service()
    port = service.register_job(0, 1)
    assert port.receive_batch(0, _batch(0, [0]), seq=0) is True
    # Queue (capacity 1) is now occupied and the shard is busy until
    # t=10000: the next sequenced batch must be rejected.
    assert port.receive_batch(0, _batch(0, [1]), seq=1) is False
    assert port.rejected_batches == 1
    # The sequence number was not consumed — the redelivery will be new.
    assert not port.is_acked(0, 1)
    assert port.is_acked(0, 0) and not port.is_acked(0, 1)  # watermark 0
    hint = port.pop_retry_hint(0, 1)
    assert hint is not None and hint >= 10_000.0
    # One-shot: the transport popped it, a second probe finds nothing.
    assert port.pop_retry_hint(0, 1) is None
    # At the hinted time the head has been applied and capacity is back.
    service.pump(hint)
    assert port.receive_batch(0, _batch(0, [1]), seq=1) is True
    service.finish()
    assert port.stored_summaries == 2
    assert all(port.is_acked(0, s) for s in (0, 1)) and not port.is_acked(0, 2)


def test_transport_honors_retry_after_over_its_own_backoff():
    service = _slow_service(base_us=10_000.0)
    port = service.register_job(0, 1)
    transport = ReliableTransport(
        server=port,  # type: ignore[arg-type]
        channel=perfect_channel(),
        policy=RetryPolicy(timeout_us=100.0, max_attempts=50),
    )
    transport.send_batch(0, _batch(0, [0]), now=0.0)
    transport.send_batch(0, _batch(0, [1]), now=0.0)  # rejected, hint=10000
    pending = transport._pending[(0, 1)]
    assert pending.next_retry_at == 10_000.0  # hint, not clock + 100
    sent_before = transport.channel.stats.sent
    transport.pump(5_000.0)  # before the hint: no retransmit
    assert transport.channel.stats.sent == sent_before
    _drive_to_quiescence(service, transport)
    assert port.stored_summaries == 2
    assert transport.gave_up == {}
    # The deferred copy was on time, not late.
    assert transport.channel.stats.late == 0


def test_no_drop_no_double_apply_under_sustained_pressure():
    obs = Obs.create()
    service = _slow_service(base_us=5_000.0, obs=obs)
    port = service.register_job(0, 2)
    transport = ReliableTransport(
        server=port,  # type: ignore[arg-type]
        channel=perfect_channel(),
        policy=RetryPolicy(timeout_us=1_000.0, max_attempts=60),
        metrics=obs.metrics,
    )
    n_batches = 8
    for i in range(n_batches):
        transport.send_batch(0, _batch(0, [2 * i, 2 * i + 1]), now=i * 100.0)
    _drive_to_quiescence(service, transport)

    # Exactly-once effect: every row stored once, nothing dropped.
    assert port.stored_summaries == 2 * n_batches
    assert all(port.is_acked(0, s) for s in range(n_batches))
    assert not port.is_acked(0, n_batches)
    assert transport.gave_up == {}
    # ... and each applied row went into the job's one store exactly once.
    assert port.duplicate_summaries == 0
    assert sum(s.applied_rows for s in service.shards) == port.stored_summaries

    # Every rejection is accounted: the front counter, the per-port
    # tally, and the transport's deferral counter all agree, and every
    # parked hint was consumed.
    counters = obs.metrics.as_dict()["counters"]
    rejected = counters.get("service.backpressure.rejected", 0)
    assert rejected >= 1
    assert port.rejected_batches == rejected
    assert counters.get("transport.backpressure_deferred", 0) == rejected
    assert port._retry_hints == {}


def test_tenants_do_not_share_blame_for_backpressure():
    """Two jobs hitting one slow shard: rejections are counted per port,
    and both jobs' data still lands exactly once."""
    obs = Obs.create()
    service = _slow_service(base_us=4_000.0, queue_limit=1, obs=obs)
    ports = {j: service.register_job(j, 1) for j in (1, 2)}
    transports = {
        j: ReliableTransport(
            server=ports[j],  # type: ignore[arg-type]
            channel=perfect_channel(),
            policy=RetryPolicy(timeout_us=500.0, max_attempts=60),
            metrics=obs.metrics,
        )
        for j in (1, 2)
    }
    for i in range(4):
        for j in (1, 2):
            transports[j].send_batch(0, _batch(0, [i]), now=i * 50.0)
    # Drive both transports together against the shared shards.
    while any(t._pending or t.channel.pending() for t in transports.values()):
        targets = []
        for t in transports.values():
            targets.extend(p.next_retry_at for p in t._pending.values())
            due = t.channel.next_due()
            if due is not None:
                targets.append(due)
        if not targets:
            break
        now = min(targets)
        service.pump(now)
        for t in transports.values():
            t.pump(now)
    service.finish()
    for j in (1, 2):
        assert ports[j].stored_summaries == 4
        assert all(ports[j].is_acked(0, s) for s in range(4))
        assert not ports[j].is_acked(0, 4)
        assert transports[j].gave_up == {}
    counters = obs.metrics.as_dict()["counters"]
    total_rejected = counters.get("service.backpressure.rejected", 0)
    assert total_rejected == sum(p.rejected_batches for p in ports.values())


def test_unsequenced_direct_ingest_bypasses_admission_control():
    """Direct (transport-less) deliveries have no retry path, so the
    front force-enqueues them even past the bound rather than lose data."""
    service = _slow_service(base_us=10_000.0, queue_limit=1)
    port = service.register_job(0, 1)
    for i in range(3):
        assert port.receive_batch(0, _batch(0, [i])) is True
    assert port.rejected_batches == 0
    service.finish()
    assert port.stored_summaries == 3
