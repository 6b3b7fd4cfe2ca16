"""Delivery-order invariance of the analysis server (hypothesis).

The transport layer guarantees at-least-once delivery, not ordered
exactly-once delivery — so the server's matrices and inter-process
verdicts must be *bit-identical* under any permutation and any amount of
redelivery of the batch stream, as long as nothing is permanently lost
(loss = 0 after retries).  These properties pin that contract, both on
synthetic batch pools and on batches captured from a real simulated run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType

N_RANKS = 4


def _summary(rank, sensor_id, stype, group, slice_index, duration, miss=0.1):
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=3,
        mean_cache_miss=miss,
    )


@st.composite
def batch_pools(draw):
    """A pool of per-rank batches with unique summary identities."""
    keys = draw(
        st.sets(
            st.tuples(
                st.integers(0, N_RANKS - 1),        # rank
                st.sampled_from([1, 2]),            # sensor
                st.sampled_from(["", "H", "L"]),    # group
                st.integers(0, 5),                  # slice
            ),
            min_size=1,
            max_size=40,
        )
    )
    summaries = []
    for rank, sensor_id, group, slice_index in sorted(keys):
        duration = draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        stype = SensorType.COMPUTATION if sensor_id == 1 else SensorType.NETWORK
        summaries.append(_summary(rank, sensor_id, stype, group, slice_index, duration))
    # Chunk each rank's summaries into batches and number them.
    batches = []
    for rank in range(N_RANKS):
        mine = [s for s in summaries if s.rank == rank]
        size = draw(st.integers(1, 4))
        for seq, start in enumerate(range(0, len(mine), size)):
            batches.append((rank, mine[start : start + size], seq))
    return batches


def _deliver(batches) -> AnalysisServer:
    server = AnalysisServer(n_ranks=N_RANKS, window_us=2000.0)
    for rank, batch, seq in batches:
        server.receive_batch(rank, list(batch), seq=seq)
    server.detect_inter_process()
    return server


def _assert_equivalent(a: AnalysisServer, b: AnalysisServer) -> None:
    for stype in SensorType:
        assert np.array_equal(
            a.performance_matrix(stype), b.performance_matrix(stype), equal_nan=True
        ), f"{stype} matrix differs"
    assert a.inter_events == b.inter_events
    assert a.degraded == b.degraded


@given(pool=batch_pools(), order_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_matrices_invariant_under_permutation(pool, order_seed):
    baseline = _deliver(pool)
    shuffled = list(pool)
    random.Random(order_seed).shuffle(shuffled)
    _assert_equivalent(baseline, _deliver(shuffled))


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    dup_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matrices_invariant_under_permutation_plus_duplication(pool, order_seed, dup_seed):
    baseline = _deliver(pool)
    rng = random.Random(dup_seed)
    redelivered = list(pool) + [b for b in pool if rng.random() < 0.5]
    random.Random(order_seed).shuffle(redelivered)
    replayed = _deliver(redelivered)
    _assert_equivalent(baseline, replayed)
    assert replayed.duplicate_batches == len(redelivered) - len(pool)


# -- the same property on batches captured from a real run -------------------


class _BatchRecorder:
    """Duck-typed server stand-in that records the rank batch stream."""

    batch_period_us = 2_000.0

    def __init__(self):
        self.batches: list[tuple[int, tuple]] = []

    def receive_batch(self, rank, summaries):
        self.batches.append((rank, tuple(summaries)))


@pytest.fixture(scope="module")
def real_batches():
    from repro.api import compile_and_instrument
    from repro.runtime.vsensor_hooks import VSensorRuntime
    from repro.sim import MachineConfig, Simulator
    from tests.conftest import SIMPLE_MPI_PROGRAM

    static = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    recorder = _BatchRecorder()
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=N_RANKS,
        server=recorder,  # type: ignore[arg-type]
    )
    machine = MachineConfig(n_ranks=N_RANKS, ranks_per_node=2)
    Simulator(static.program.module, machine, sensors=static.program.sensors).run(runtime)
    seqs: dict[int, int] = {}
    numbered = []
    for rank, batch in recorder.batches:
        seq = seqs.get(rank, 0)
        seqs[rank] = seq + 1
        numbered.append((rank, batch, seq))
    assert len(numbered) >= N_RANKS
    return numbered


@given(order_seed=st.integers(0, 2**32 - 1), dup_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_real_run_batches_invariant(real_batches, order_seed, dup_seed):
    baseline = _deliver(real_batches)
    rng = random.Random(dup_seed)
    redelivered = list(real_batches) + [b for b in real_batches if rng.random() < 0.3]
    random.Random(order_seed).shuffle(redelivered)
    _assert_equivalent(baseline, _deliver(redelivered))


# -- the transport's side of the contract: acceptance is the ack --------------


@given(
    drop=st.floats(0.0, 0.6),
    dup=st.floats(0.0, 0.5),
    reorder=st.floats(0.0, 0.5),
    channel_seed=st.integers(0, 2**16),
    max_attempts=st.sampled_from([2, 4, 40]),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1), st.floats(0.0, 3000.0)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_pending_is_exactly_sent_minus_acked_minus_abandoned(
    drop, dup, reorder, channel_seed, max_attempts, steps
):
    """Over random drop/dup/reorder schedules into a back-pressured
    ``TenantPort`` (one slow shard, queue of one): after every
    ``send_batch`` / ``pump`` the transport's pending set is exactly the
    sent ``(rank, seq)`` that the endpoint has not acked and the transport
    has not abandoned, and ``finish()`` leaves it empty."""
    from collections import Counter

    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport, RetryPolicy
    from repro.service import AnalysisService, ShardCostModel

    service = AnalysisService(
        1, window_us=2000.0, queue_limit=1, cost=ShardCostModel(base_us=2_000.0)
    )
    port = service.register_job(0, 2)
    transport = ReliableTransport(
        server=port,  # type: ignore[arg-type]
        channel=LossyChannel(
            config=ChannelConfig(
                drop_rate=drop,
                dup_rate=dup,
                reorder_rate=reorder,
                reorder_delay_us=5_000.0,
                seed=channel_seed,
            )
        ),
        policy=RetryPolicy(timeout_us=500.0, max_attempts=max_attempts),
    )
    sent: set[tuple[int, int]] = set()
    abandoned: set[tuple[int, int]] = set()
    was_pending: set[tuple[int, int]] = set()

    def check() -> None:
        nonlocal was_pending
        pending = set(transport._pending)
        # Deliveries precede the retry walk inside one pump, so a batch
        # that left the pending set unacked was abandoned by that walk.
        abandoned.update(k for k in was_pending - pending if not port.is_acked(*k))
        assert transport.gave_up == dict(Counter(rank for rank, _ in abandoned))
        assert pending == {
            k for k in sent if k not in abandoned and not port.is_acked(*k)
        }
        was_pending = pending

    now = 0.0
    for is_send, rank, dt in steps:
        now += dt
        service.pump(now)
        if is_send:
            seq = sum(1 for r, _ in sent if r == rank)
            row = _summary(rank, 1, SensorType.COMPUTATION, "", seq, 10.0)
            assert transport.send_batch(rank, [row], now) == seq
            sent.add((rank, seq))
            # send_batch pumps before returning, so the new batch may
            # already have been retired; it was pending in between.
            was_pending.add((rank, seq))
        else:
            transport.pump(now)
        check()

    # finish() alone does not advance the shards' clock, so what is still
    # queued behind the full shard ends in hinted retries or abandonment.
    transport.finish()
    service.finish()
    assert transport._pending == {} and transport.unacked() == 0
    unacked = {k for k in sent if not port.is_acked(*k)}
    assert len(unacked) <= sum(transport.gave_up.values())
    assert {rank for rank, _ in unacked} <= set(transport.gave_up) == port.degraded
    # Exactly-once effect: one row per accepted batch, none twice.
    assert port.stored_summaries == len(sent) - len(unacked)
    assert port.duplicate_summaries == 0
