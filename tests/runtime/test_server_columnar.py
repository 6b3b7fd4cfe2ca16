"""Differential suite: columnar vs reference analysis engines.

The columnar data path (:mod:`repro.runtime.columnar`) must be
**bit-identical** to the reference object-at-a-time replay — matrices,
inter-process events, history standards, and every counter — under any
ingest order, redelivery, degraded ranks, and interleaved live queries
(the interleaving is what forces the incremental-replay epochs).  These
properties are the contract; approximate agreement is a failure.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.obs import Obs
from repro.runtime.batch_detector import SummaryLog
from repro.runtime.history import SensorHistory, observe_block
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns, SummaryView
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


#: sensor 3 reports under a type drawn per summary, so the sensor -> type
#: answer depends on which stored row came last
_FIXED_TYPES = {1: SensorType.COMPUTATION, 2: SensorType.NETWORK}


@st.composite
def batch_pools(draw):
    """A pool of per-rank batches with unique summary identities."""
    keys = draw(
        st.sets(
            st.tuples(
                st.integers(0, N_RANKS - 1),        # rank
                st.sampled_from([1, 2, 3]),         # sensor
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
        stype = _FIXED_TYPES.get(sensor_id) or draw(st.sampled_from(list(SensorType)))
        summaries.append(_summary(rank, sensor_id, stype, group, slice_index, duration))
    batches = []
    for rank in range(N_RANKS):
        mine = [s for s in summaries if s.rank == rank]
        size = draw(st.integers(1, 4))
        for seq, start in enumerate(range(0, len(mine), size)):
            batches.append((rank, mine[start : start + size], seq))
    return batches


def _servers() -> tuple[AnalysisServer, AnalysisServer]:
    return (
        AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="reference"),
        AnalysisServer(n_ranks=N_RANKS, window_us=2000.0, engine="columnar"),
    )


_COUNTERS = (
    "bytes_received",
    "batches_received",
    "summaries_received",
    "duplicate_batches",
    "duplicate_summaries",
)


def _assert_equivalent(ref: AnalysisServer, col: AnalysisServer) -> None:
    for stype in SensorType:
        assert np.array_equal(
            ref.performance_matrix(stype), col.performance_matrix(stype), equal_nan=True
        ), f"{stype} matrix differs"
        assert np.array_equal(
            ref.mean_rank_performance(stype),
            col.mean_rank_performance(stype),
            equal_nan=True,
        )
    # Event equality covers ``sensor_type``: last stored row wins on both.
    assert ref.detect_inter_process() == col.detect_inter_process()
    for now in (0.0, 2500.0, 6000.0):
        assert ref.silent_ranks(now, staleness_us=1500.0) == col.silent_ranks(
            now, staleness_us=1500.0
        )
    assert ref.history._standard == col.history._standard
    assert ref.stored_summaries == col.stored_summaries
    assert ref.degraded == col.degraded
    for name in _COUNTERS:
        assert getattr(ref, name) == getattr(col, name), f"{name} differs"


# -- hypothesis differential properties --------------------------------------


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    dup_seed=st.integers(0, 2**32 - 1),
    degraded=st.sets(st.integers(0, N_RANKS - 1), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_engines_bit_identical_under_redelivery(pool, order_seed, dup_seed, degraded):
    rng = random.Random(dup_seed)
    stream = list(pool) + [b for b in pool if rng.random() < 0.4]
    # Unsequenced copies pass the watermark, so whichever copy comes second
    # reaches the store as a batch holding only identity duplicates.
    stream += [(rank, batch, None) for rank, batch, _ in pool if rng.random() < 0.3]
    random.Random(order_seed).shuffle(stream)
    ref, col = _servers()
    for rank, batch, seq in stream:
        accepted_ref = ref.receive_batch(rank, list(batch), seq=seq)
        accepted_col = col.receive_batch(rank, list(batch), seq=seq)
        assert accepted_ref == accepted_col
    for rank in degraded:
        ref.mark_degraded(rank)
        col.mark_degraded(rank)
    _assert_equivalent(ref, col)


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    query_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_engines_bit_identical_under_interleaved_queries(pool, order_seed, query_seed):
    """Queries between ingests force the columnar store's incremental
    epochs (roll-forward from carried-in standards) — the replayed state
    must still match the reference's from-scratch recompute exactly."""
    stream = list(pool)
    random.Random(order_seed).shuffle(stream)
    rng = random.Random(query_seed)
    ref, col = _servers()
    for rank, batch, seq in stream:
        ref.receive_batch(rank, list(batch), seq=seq)
        col.receive_batch(rank, list(batch), seq=seq)
        if rng.random() < 0.6:
            stype = rng.choice(list(SensorType))
            assert np.array_equal(
                ref.performance_matrix(stype), col.performance_matrix(stype), equal_nan=True
            )
        if rng.random() < 0.3:
            assert ref.detect_inter_process() == col.detect_inter_process()
    _assert_equivalent(ref, col)


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    form_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_engines_bit_identical_under_mixed_arrival_forms(pool, order_seed, form_seed):
    """The columnar store stages whatever arrives — row lists, decoded
    columns, views of a detector's log — and settles at the next read.
    Redelivered and *conflicting* copies (same identity, other values)
    arrive in any form and any order; after every ingest the row and
    duplicate counts equal the eager oracle's, so the first arrival won."""
    rng = random.Random(form_seed)
    stream = list(pool) + [b for b in pool if rng.random() < 0.3]
    for rank, batch, _ in pool:
        if rng.random() < 0.3:
            stream.append((rank, batch, None))
        if rng.random() < 0.3:
            conflicting = [
                replace(s, mean_duration=s.mean_duration + 1.0, sensor_type=SensorType.IO)
                for s in batch
            ]
            stream.append((rank, conflicting, None))
    random.Random(order_seed).shuffle(stream)
    ref, col = _servers()
    log = SummaryLog(N_RANKS, slice_us=1000.0)
    for rank, batch, seq in stream:
        accepted = ref.receive_batch(rank, list(batch), seq=seq)
        form = rng.choice(("rows", "columns", "view"))
        if form == "rows":
            assert col.receive_batch(rank, list(batch), seq=seq) == accepted
        elif form == "columns":
            columns = SummaryColumns.from_rows(batch)
            assert col.receive_batch_columns(rank, columns, seq=seq) == accepted
        else:
            start = int(log.rows[rank])
            for row in batch:
                log.append_row(rank, (
                    row.sensor_id, SENSOR_TYPE_CODE[row.sensor_type], log.intern(row.group),
                    row.slice_index, row.mean_duration, row.count, row.mean_cache_miss,
                ))
            view = SummaryView(log, rank, start, start + len(batch))
            assert col.receive_batch(rank, view, seq=seq) == accepted
        assert col.stored_summaries == ref.stored_summaries
        assert col.duplicate_summaries == ref.duplicate_summaries
        if rng.random() < 0.3:
            stype = rng.choice(list(SensorType))
            assert np.array_equal(
                ref.performance_matrix(stype), col.performance_matrix(stype), equal_nan=True
            )
    _assert_equivalent(ref, col)


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    drain_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_spool_drain_differential(pool, order_seed, drain_seed):
    """The zero-copy batch decode feeds both engines identically: write
    the pool through a FileSpool, drain into each engine with interleaved
    partial drains, and require bit-identical state (including the
    actual-encoded-size byte accounting, which both engines share)."""
    from repro.runtime.transport import FileSpool

    stream = list(pool)
    random.Random(order_seed).shuffle(stream)
    rng = random.Random(drain_seed)
    with tempfile.TemporaryDirectory() as directory:
        writer = FileSpool(directory=directory)
        ref, col = _servers()
        ref_reader = FileSpool(directory=directory)
        col_reader = FileSpool(directory=directory)
        for rank, batch, _seq in stream:
            writer.append_batch(rank, list(batch))
            if rng.random() < 0.4:
                assert ref_reader.drain_into(ref) == col_reader.drain_into(col)
            if rng.random() < 0.3:
                stype = rng.choice(list(SensorType))
                assert np.array_equal(
                    ref.performance_matrix(stype),
                    col.performance_matrix(stype),
                    equal_nan=True,
                )
        assert ref_reader.drain_into(ref) == col_reader.drain_into(col)
        _assert_equivalent(ref, col)


@given(
    durations=st.lists(
        st.floats(min_value=-5.0, max_value=100.0, allow_nan=False), max_size=30
    ),
    chunk=st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_observe_block_matches_scalar_history(durations, chunk):
    """The vectorized cumulative-min kernel reproduces SensorHistory.observe
    bit-for-bit, including across chunk boundaries (epoch carry-over)."""
    history = SensorHistory()
    expected = [history.observe(1, "", d) for d in durations]
    got: list[float] = []
    standard = None
    for start in range(0, len(durations), chunk):
        perf, standard = observe_block(
            np.asarray(durations[start : start + chunk], np.float64), standard
        )
        got.extend(perf.tolist())
    assert got == expected
    if durations:
        assert standard == history.standard_time(1)


# -- replay epochs and observability -----------------------------------------


def _obs_server(n_ranks=2, window_us=1000.0) -> tuple[AnalysisServer, Obs]:
    obs = Obs.create()
    server = AnalysisServer(
        n_ranks=n_ranks, window_us=window_us, metrics=obs.metrics, obs=obs
    )
    return server, obs


def _replay_counters(obs: Obs) -> dict[str, int]:
    counters = obs.metrics.as_dict()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("server.replay.")}


def test_append_only_epochs_replay_incrementally():
    server, obs = _obs_server()
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", s, 10.0) for s in range(3)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 1}
    # New rows all sort after everything replayed: roll forward.
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", s, 9.0) for s in range(3, 6)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 1, "server.replay.incremental": 1}
    # A row for an earlier slice lands after the fact: full re-sort.
    server.receive_batch(1, [_summary(1, 1, SensorType.COMPUTATION, "", 0, 11.0)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 2, "server.replay.incremental": 1}
    spans = [r for r in obs.tracer.records() if r.name == "server.replay"]
    assert [s.attrs["kind"] for s in spans] == ["full", "incremental", "full"]
    assert [s.attrs["rows"] for s in spans] == [3, 3, 7]


def test_a_redelivered_row_does_not_turn_an_epoch_full():
    """Duplicates are dropped before the epoch is classified: new rows that
    all sort after the replayed ones roll forward even when the batch also
    redelivers (or contradicts) an old row — what eager dedup did."""
    server, obs = _obs_server()
    old = [_summary(0, 1, SensorType.COMPUTATION, "", s, 10.0) for s in range(3)]
    server.receive_batch(0, old)
    before = server.performance_matrix(SensorType.COMPUTATION)
    server.receive_batch(
        0,
        [_summary(0, 1, SensorType.COMPUTATION, "", 0, 99.0)]
        + [_summary(0, 1, SensorType.COMPUTATION, "", s, 9.0) for s in range(3, 6)]
        + old[1:2],
    )
    after = server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 1, "server.replay.incremental": 1}
    spans = [r for r in obs.tracer.records() if r.name == "server.replay"]
    assert [s.attrs["rows"] for s in spans] == [3, 3]
    assert (server.stored_summaries, server.duplicate_summaries) == (6, 2)
    assert obs.metrics.as_dict()["counters"]["server.duplicate_summaries"] == 2
    assert np.array_equal(after[:, : before.shape[1]], before, equal_nan=True)
    # A batch of nothing but duplicates is no epoch at all.
    server.receive_batch(0, old)
    server.performance_matrix(SensorType.COMPUTATION)
    assert len([r for r in obs.tracer.records() if r.name == "server.replay"]) == 2
    assert server.duplicate_summaries == 5


def test_pure_queries_emit_no_replay_spans():
    server, obs = _obs_server()
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)])
    server.performance_matrix(SensorType.COMPUTATION)
    before = len(obs.tracer.records())
    for _ in range(3):
        server.performance_matrix(SensorType.COMPUTATION)
        server.detect_inter_process()
    assert len(obs.tracer.records()) == before


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown analysis engine"):
        AnalysisServer(n_ranks=2, engine="vectorized")


@pytest.mark.parametrize("engine", ["columnar", "reference"])
@pytest.mark.parametrize("bad_rank", [-1, 2, 5])
def test_a_row_outside_the_job_is_a_typed_error(engine, bad_rank):
    """NumPy would wrap rank -1 onto the last matrix row and fail on rank 5
    with a bare IndexError at some later query; both engines refuse it by
    the epoch's first read instead, naming the rank, and keep refusing."""
    server = AnalysisServer(n_ranks=2, window_us=1000.0, engine=engine)
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)])
    server.receive_batch(1, [_summary(bad_rank, 1, SensorType.COMPUTATION, "", 0, 20.0)])
    message = rf"rank {bad_rank}; this job has ranks 0\.\.1"
    with pytest.raises(ReproError, match=message):
        server.performance_matrix(SensorType.COMPUTATION)
    with pytest.raises(ReproError, match=message):
        _ = server.stored_summaries


@pytest.mark.parametrize("engine", ["columnar", "reference"])
def test_a_spool_file_for_a_rank_the_job_lacks_is_refused(engine):
    """Spool file names are outside input: ``rank00005.spool`` drained into
    a two-rank server carries rank 5 into every row it decodes."""
    from repro.runtime.transport import FileSpool

    with tempfile.TemporaryDirectory() as directory:
        spool = FileSpool(directory=directory)
        spool.append_batch(5, [_summary(5, 1, SensorType.COMPUTATION, "", 0, 10.0)])
        server = AnalysisServer(n_ranks=2, window_us=1000.0, engine=engine)
        spool.drain_into(server)
        with pytest.raises(ReproError, match="rank 5"):
            server.detect_inter_process()
        spool.close()


def test_stored_summaries_counts_deduplicated_rows():
    ref, col = _servers()
    batch = [_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)]
    for server in (ref, col):
        server.receive_batch(0, batch)
        server.receive_batch(0, batch)  # identity duplicate, no seq
        assert server.stored_summaries == 1
        assert server.duplicate_summaries == 1


def test_sensor_type_is_last_stored_row_and_duplicates_change_nothing():
    """One sensor id arriving under two types: the later stored row names
    the event's type on both engines, and a batch of nothing but identity
    duplicates (carrying the older type) moves none of the answers."""
    first = [_summary(r, 7, SensorType.COMPUTATION, "", 0, 10.0 * (1 + 3 * r)) for r in (0, 1)]
    second = [_summary(r, 7, SensorType.NETWORK, "", 4, 10.0 * (1 + 3 * r)) for r in (0, 1)]

    def answers(server):
        events = server.detect_inter_process()
        return (
            [(e.window_index, e.sensor_type, e.slow_ranks) for e in events],
            server.silent_ranks(5000.0, staleness_us=1500.0),
            server.performance_matrix(SensorType.NETWORK).shape,
        )

    for server in _servers():
        for row in first + second:
            server.receive_batch(row.rank, [row])
        expected = (
            [(0, SensorType.NETWORK, (1,)), (2, SensorType.NETWORK, (1,))],
            [2, 3],
            (N_RANKS, 3),
        )
        assert answers(server) == expected
        for row in first:
            server.receive_batch(row.rank, [row])
        assert server.duplicate_summaries == 2 and server.stored_summaries == 4
        assert answers(server) == expected


# -- byte accounting ----------------------------------------------------------


def test_direct_delivery_keeps_nominal_byte_accounting():
    ref, col = _servers()
    batch = [_summary(0, 1, SensorType.COMPUTATION, "", s, 10.0) for s in range(2)]
    for server in (ref, col):
        server.receive_batch(0, batch)
        assert server.bytes_received == 8 + 2 * SliceSummary.WIRE_BYTES


def test_transport_accounts_actual_encoded_size():
    """Over the message transport, bytes_received counts real frame sizes:
    26 bytes per record frame plus a group-definition frame (8 + 2 + len)
    the first time a rank ships each group — and a redelivered batch is
    accounted at exactly its original size."""
    from repro.runtime.channel import perfect_channel
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    transport = ReliableTransport(server=server, channel=perfect_channel())
    transport.send_batch(
        0,
        [
            _summary(0, 1, SensorType.COMPUTATION, "H", 0, 10.0),
            _summary(0, 1, SensorType.COMPUTATION, "", 1, 10.0),
        ],
        now=0.0,
    )
    transport.finish()
    assert server.bytes_received == (8 + 2 + 1) + 2 * 26
    transport.send_batch(
        0, [_summary(0, 1, SensorType.COMPUTATION, "H", 2, 10.0)], now=2000.0
    )
    transport.finish()
    # "H" was already defined for rank 0: no second definition frame.
    assert server.bytes_received == (8 + 2 + 1) + 3 * 26


def test_spool_drain_accounts_consumed_bytes():
    from repro.runtime.transport import FileSpool

    with tempfile.TemporaryDirectory() as directory:
        spool = FileSpool(directory=directory)
        spool.append_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "H", 0, 10.0)])
        server = AnalysisServer(n_ranks=1, window_us=1000.0)
        spool.drain_into(server)
        assert server.bytes_received == (8 + 2 + 1) + 26


# -- end-to-end ---------------------------------------------------------------


def test_run_vsensor_engines_identical_end_to_end():
    """Full pipeline under both engines, with interleaved live snapshots:
    every matrix (final and per-snapshot) is bit-identical."""
    from repro.api import run_vsensor
    from repro.runtime.live import LiveReporter
    from repro.sim import MachineConfig
    from tests.conftest import SIMPLE_MPI_PROGRAM

    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    runs = {}
    reporters = {}
    for engine in ("reference", "columnar"):
        reporters[engine] = LiveReporter(period_us=500.0)
        runs[engine] = run_vsensor(
            SIMPLE_MPI_PROGRAM,
            machine,
            window_us=2000.0,
            batch_period_us=1000.0,
            analysis_engine=engine,
            live=reporters[engine],
        )
    ref, col = runs["reference"], runs["columnar"]
    assert set(ref.report.matrices) == set(col.report.matrices)
    for stype, matrix in ref.report.matrices.items():
        assert np.array_equal(matrix, col.report.matrices[stype], equal_nan=True)
    assert ref.runtime.server.inter_events == col.runtime.server.inter_events
    assert ref.runtime.server.bytes_received == col.runtime.server.bytes_received
    ref_snaps, col_snaps = reporters["reference"].snapshots, reporters["columnar"].snapshots
    assert len(ref_snaps) == len(col_snaps) > 0
    for a, b in zip(ref_snaps, col_snaps):
        assert set(a.matrices) == set(b.matrices)
        for stype, matrix in a.matrices.items():
            assert np.array_equal(matrix, b.matrices[stype], equal_nan=True)
        assert a.low_cells == b.low_cells
