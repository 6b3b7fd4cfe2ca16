"""Differential suite: sharded service vs unsharded reference server.

The service contract is **bit-identity**: for every job, every query the
merged per-job view answers (matrices, rank means, inter-process events,
history standards, stored rows) must equal what a single unsharded
``AnalysisServer`` fed only that job's records would answer — for any
shard count, any job count, any interleaving of jobs' batches, and any
redelivery schedule.  Approximate agreement is a failure; these mirror
the engine-equality suites of PRs 5–6 one layer up.
"""

from __future__ import annotations

import random
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType
from repro.service import AnalysisService
from repro.service.router import ShardRouter
from repro.service.shard import ShardCostModel, ShardWorker
from tests.service.util import make_summary

N_RANKS = 4


@st.composite
def job_pools(draw):
    """Per-job pools of sequenced per-rank batches with unique identities."""
    n_jobs = draw(st.integers(1, 3))
    pools = {}
    for job in range(n_jobs):
        keys = draw(
            st.sets(
                st.tuples(
                    st.integers(0, N_RANKS - 1),        # rank
                    st.sampled_from([1, 2, 3]),         # sensor
                    st.sampled_from(["", "H", "L"]),    # group
                    st.integers(0, 5),                  # slice
                ),
                min_size=1,
                max_size=25,
            )
        )
        summaries = []
        for rank, sensor_id, group, slice_index in sorted(keys):
            duration = draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
            stype = SensorType.COMPUTATION if sensor_id == 1 else SensorType.NETWORK
            summaries.append(
                make_summary(rank, sensor_id, stype, group, slice_index, duration)
            )
        batches = []
        for rank in range(N_RANKS):
            mine = [s for s in summaries if s.rank == rank]
            size = draw(st.integers(1, 4))
            for seq, start in enumerate(range(0, len(mine), size)):
                batches.append((rank, mine[start : start + size], seq))
        pools[job] = batches
    return pools


def _reference_for(batches) -> AnalysisServer:
    """An unsharded server fed only this job's batches, in pool order."""
    ref = AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference")
    for rank, batch, seq in batches:
        ref.receive_batch(rank, list(batch), seq=seq)
    return ref


def _assert_job_equivalent(port, ref: AnalysisServer) -> None:
    for stype in SensorType:
        assert np.array_equal(
            ref.performance_matrix(stype), port.performance_matrix(stype), equal_nan=True
        ), f"{stype} matrix differs"
        assert np.array_equal(
            ref.mean_rank_performance(stype),
            port.mean_rank_performance(stype),
            equal_nan=True,
        )
    assert ref.detect_inter_process() == port.detect_inter_process()
    assert ref.history._standard == port.history._standard
    assert ref.stored_summaries == port.stored_summaries
    assert ref.duplicate_summaries == port.duplicate_summaries


def _assert_same_accounting(port, ref: AnalysisServer) -> None:
    """The port's transport accounting is the solo server's: the same
    deliveries went into both, and each is counted once."""
    assert port.batches_received == ref.batches_received
    assert port.bytes_received == ref.bytes_received
    assert port.summaries_received == ref.summaries_received
    assert port.duplicate_batches == ref.duplicate_batches
    assert port.degraded == ref.degraded


@given(
    pools=job_pools(),
    n_shards=st.integers(1, 6),
    order_seed=st.integers(0, 2**32 - 1),
    dup_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_sharded_queries_bit_identical_under_redelivery(
    pools, n_shards, order_seed, dup_seed
):
    """Jobs' batches interleaved in random global order, with random
    redelivery: every job's merged view matches its solo reference.
    Sequenced redeliveries stop at the front's watermark; unsequenced
    ones reach the job's store, whose identity dedup must count exactly
    what the unsharded server's does."""
    rng = random.Random(dup_seed)
    stream = [
        (job, rank, batch, seq)
        for job, batches in pools.items()
        for rank, batch, seq in batches
    ]
    stream += [item for item in stream if rng.random() < 0.4] + [
        (job, rank, batch, None)
        for job, rank, batch, _ in stream
        if rng.random() < 0.2
    ]
    random.Random(order_seed).shuffle(stream)

    service = AnalysisService(n_shards, window_us=2000.0)
    ports = {job: service.register_job(job, N_RANKS) for job in pools}
    refs = {job: AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference")
            for job in pools}
    for job, rank, batch, seq in stream:
        accepted_port = ports[job].receive_batch(rank, list(batch), seq=seq)
        accepted_ref = refs[job].receive_batch(rank, list(batch), seq=seq)
        assert accepted_port == accepted_ref
        if rng.random() < 0.1:  # a transport gives up on the rank
            ports[job].mark_degraded(rank)
            refs[job].mark_degraded(rank)
    service.finish()
    for job in pools:
        _assert_job_equivalent(ports[job], refs[job])
        _assert_same_accounting(ports[job], refs[job])
    # Every row a shard applied is in its job's store once or counted as
    # a duplicate there once — no second copy anywhere.
    assert sum(shard.applied_rows for shard in service.shards) == sum(
        port.stored_summaries + port.duplicate_summaries for port in ports.values()
    )


@given(
    pools=job_pools(),
    n_shards=st.integers(1, 4),
    order_seed=st.integers(0, 2**32 - 1),
    query_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_sharded_queries_bit_identical_with_interleaved_queries(
    pools, n_shards, order_seed, query_seed
):
    """Merged-view queries between ingests (incremental merger refreshes
    mid-stream) never diverge from the reference."""
    stream = [
        (job, rank, batch, seq)
        for job, batches in pools.items()
        for rank, batch, seq in batches
    ]
    random.Random(order_seed).shuffle(stream)
    rng = random.Random(query_seed)

    service = AnalysisService(n_shards, window_us=2000.0)
    ports = {job: service.register_job(job, N_RANKS) for job in pools}
    refs = {job: AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference")
            for job in pools}
    for job, rank, batch, seq in stream:
        ports[job].receive_batch(rank, list(batch), seq=seq)
        refs[job].receive_batch(rank, list(batch), seq=seq)
        if rng.random() < 0.3:
            probe = rng.choice(sorted(pools))
            stype = rng.choice(list(SensorType))
            service.finish()  # make queued work queryable
            assert np.array_equal(
                refs[probe].performance_matrix(stype),
                ports[probe].performance_matrix(stype),
                equal_nan=True,
            )
    service.finish()
    for job in pools:
        _assert_job_equivalent(ports[job], refs[job])


@given(
    pools=job_pools(),
    n_shards=st.integers(1, 4),
    order_seed=st.integers(0, 2**32 - 1),
    step_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_queries_between_applies_see_exactly_the_applied_rows(
    pools, n_shards, order_seed, step_seed
):
    """One store per tenant: after any prefix of sends and pumps — slow
    shards, short queues, rejections, unsequenced redelivery — a job's
    store accounts for exactly the sub-batches the shards have applied
    for it, and answers as an unsharded server fed those sub-batches."""
    rng = random.Random(step_seed)
    stream = [
        (job, rank, batch, seq)
        for job, batches in pools.items()
        for rank, batch, seq in batches
    ]
    stream += [
        (job, rank, batch, None)
        for job, rank, batch, _ in stream
        if rng.random() < 0.3
    ]
    random.Random(order_seed).shuffle(stream)

    service = AnalysisService(
        n_shards,
        window_us=2000.0,
        cost=ShardCostModel(base_us=40.0, per_row_us=3.0),
        queue_limit=3,
    )
    ports = {job: service.register_job(job, N_RANKS) for job in pools}
    refs = {job: AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference")
            for job in pools}
    applied_rows = dict.fromkeys(pools, 0)
    apply = ShardWorker._apply

    def recording_apply(shard, batch):
        job = batch.port.job_id
        refs[job].receive_batch(batch.rank, list(batch.rows))
        applied_rows[job] += len(batch.rows)
        return apply(shard, batch)

    now = 0.0
    with mock.patch.object(ShardWorker, "_apply", recording_apply):
        for job, rank, batch, seq in stream:
            ports[job].receive_batch(rank, list(batch), seq=seq)
            if rng.random() < 0.5:
                now += rng.choice((10.0, 60.0, 400.0))
                service.pump(now)
            probe = rng.choice(sorted(pools))
            port, ref = ports[probe], refs[probe]
            assert port.stored_summaries + port.duplicate_summaries == applied_rows[probe]
            assert port.stored_summaries == ref.stored_summaries
            stype = rng.choice(list(SensorType))
            assert np.array_equal(
                ref.performance_matrix(stype),
                port.performance_matrix(stype),
                equal_nan=True,
            )
        service.finish()
    for job in pools:
        _assert_job_equivalent(ports[job], refs[job])
    assert sum(shard.applied_rows for shard in service.shards) == sum(
        applied_rows.values()
    )


@given(
    pools=job_pools(),
    order_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_sharded_with_queue_delays_still_bit_identical(pools, order_seed):
    """A nonzero deterministic cost model (queued, delayed applies) only
    changes *when* rows land in shard stores, never what queries answer
    once drained."""
    stream = [
        (job, rank, batch, seq)
        for job, batches in pools.items()
        for rank, batch, seq in batches
    ]
    random.Random(order_seed).shuffle(stream)
    service = AnalysisService(
        3,
        window_us=2000.0,
        cost=ShardCostModel(base_us=40.0, per_row_us=3.0),
        queue_limit=10_000,
    )
    ports = {job: service.register_job(job, N_RANKS) for job in pools}
    for job, rank, batch, seq in stream:
        assert ports[job].receive_batch(rank, list(batch), seq=seq) in (True, False)
    service.finish()
    for job, batches in pools.items():
        _assert_job_equivalent(ports[job], _reference_for(batches))


@given(pools=job_pools(), n_shards=st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_a_spool_drain_goes_through_admission_and_the_shards(pools, n_shards):
    """``FileSpool.drain_into(port)`` reaches the port's own
    ``receive_batch_columns``: every drained row is applied by a shard,
    and the port answers as a solo server draining the same spool."""
    from repro.runtime.transport import FileSpool

    batches = pools[0]
    with tempfile.TemporaryDirectory() as directory:
        writer = FileSpool(directory=directory)
        for rank, batch, _seq in batches:
            writer.append_batch(rank, list(batch))
        writer.close()
        service = AnalysisService(n_shards, window_us=2000.0)
        port = service.register_job(0, N_RANKS)
        ref = AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference")
        drained = FileSpool(directory=directory).drain_into(port, expected_ranks=N_RANKS)
        assert drained == FileSpool(directory=directory).drain_into(ref, expected_ranks=N_RANKS)
    service.finish()
    assert sum(shard.applied_rows for shard in service.shards) == drained
    _assert_job_equivalent(port, ref)
    _assert_same_accounting(port, ref)


def test_single_shard_service_equals_unsharded_server():
    """Degenerate sharding (N=1) is exactly the unsharded server."""
    batches = []
    for rank in range(N_RANKS):
        for seq in range(3):
            batches.append(
                (
                    rank,
                    [
                        make_summary(
                            rank, s, SensorType.COMPUTATION, "", seq, 10.0 + rank + s
                        )
                        for s in (1, 2)
                    ],
                    seq,
                )
            )
    service = AnalysisService(1, window_us=2000.0)
    port = service.register_job(0, N_RANKS)
    for rank, batch, seq in batches:
        port.receive_batch(rank, batch, seq=seq)
    service.finish()
    _assert_job_equivalent(port, _reference_for(batches))


def test_job_isolation_identical_rows_do_not_collide():
    """Two jobs sending byte-identical rows stay fully isolated: neither
    sees the other's rows as duplicates, and each merged view holds its
    own copy."""
    service = AnalysisService(2, window_us=2000.0)
    a = service.register_job(1, N_RANKS)
    b = service.register_job(2, N_RANKS)
    batch = [make_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)]
    assert a.receive_batch(0, list(batch), seq=0)
    assert b.receive_batch(0, list(batch), seq=0)
    service.finish()
    assert a.stored_summaries == 1
    assert b.stored_summaries == 1
    assert a.duplicate_summaries == 0
    assert b.duplicate_summaries == 0


def test_router_is_deterministic_and_stream_sticky():
    router = ShardRouter(5)
    other = ShardRouter(5)
    for job in range(3):
        for rank in range(4):
            for sensor in range(6):
                shard = router.shard_of(job, rank, sensor)
                assert 0 <= shard < 5
                assert shard == other.shard_of(job, rank, sensor)
    batch = [
        make_summary(0, s, SensorType.COMPUTATION, "", sl, 5.0)
        for s in (1, 2, 3)
        for sl in range(3)
    ]
    split = router.split(7, 0, batch)
    assert sum(len(rows) for rows in split.values()) == len(batch)
    for shard_id, rows in split.items():
        for s in rows:
            assert router.shard_of(7, 0, s.sensor_id) == shard_id
        # order within each sub-batch preserves the original batch order
        idx = [batch.index(s) for s in rows]
        assert idx == sorted(idx)


def test_router_spreads_streams_across_shards():
    router = ShardRouter(4)
    counts: dict[int, int] = {}
    for rank in range(16):
        for sensor_id in range(8):
            shard = router.shard_of(0, rank, sensor_id)
            counts[shard] = counts.get(shard, 0) + 1
    assert set(counts) == {0, 1, 2, 3}
    assert sum(counts.values()) == 16 * 8
    # consistent hashing with vnodes: no shard is starved or hogs >60%
    assert min(counts.values()) > 0
    assert max(counts.values()) < 0.6 * 16 * 8
