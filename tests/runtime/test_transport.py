"""Shared-file transport tests (§5.4's alternative delivery path)."""

import os

import pytest

from repro.errors import ReproError
from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool
from repro.sensors.model import SensorType


def summary(rank, slice_index, duration, sensor_id=1, stype=SensorType.COMPUTATION, group="", miss=0.25):
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=4,
        mean_cache_miss=miss,
    )


def test_round_trip_preserves_fields(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 3, 12.5, sensor_id=42, stype=SensorType.NETWORK, group="miss1")])
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    read = spool.drain_into(server, slice_us=1000.0)
    assert read == 1
    assert server.summaries_received == 1
    matrix = server.performance_matrix(SensorType.NETWORK)
    assert matrix.shape == (2, 4)


def test_equivalent_to_direct_delivery(tmp_path):
    batches = {
        0: [summary(0, 0, 10.0), summary(0, 1, 20.0)],
        1: [summary(1, 0, 10.0), summary(1, 1, 10.0)],
    }
    direct = AnalysisServer(n_ranks=2, window_us=1000.0)
    for rank, batch in batches.items():
        direct.receive_batch(rank, batch)

    spool = FileSpool(directory=str(tmp_path))
    for rank, batch in batches.items():
        spool.append_batch(rank, batch)
    spooled = AnalysisServer(n_ranks=2, window_us=1000.0)
    spool.drain_into(spooled, slice_us=1000.0)

    import numpy as np

    d = direct.performance_matrix(SensorType.COMPUTATION)
    s = spooled.performance_matrix(SensorType.COMPUTATION)
    assert np.allclose(np.nan_to_num(d, nan=-1), np.nan_to_num(s, nan=-1), rtol=1e-6)


def test_incremental_drain_reads_only_new_data(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    spool.append_batch(0, [summary(0, 0, 10.0)])
    assert spool.drain_into(server) == 1
    assert spool.drain_into(server) == 0
    spool.append_batch(0, [summary(0, 1, 10.0)])
    assert spool.drain_into(server) == 1


def test_multiple_ranks_separate_spools(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    for rank in range(4):
        spool.append_batch(rank, [summary(rank, 0, 10.0)])
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"rank{r:05d}.spool" for r in range(4)]
    server = AnalysisServer(n_ranks=4, window_us=1000.0)
    assert spool.drain_into(server) == 4


class _CapturingServer(AnalysisServer):
    """Records every summary a spool drain hands over (AnalysisServer uses
    slots, so the capture must be a subclass override, not a monkeypatch).
    A drain delivers decoded column batches; they are captured in object
    form, as the reference engine (``engine="reference"``) ingests them."""

    captured: list = []

    def receive_batch_columns(self, rank, columns, seq=None, encoded_bytes=None):
        type(self).captured.extend(columns.to_summaries())
        return super().receive_batch_columns(rank, columns, seq, encoded_bytes)


def test_cache_miss_quantization_error_small(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 0, 10.0, miss=0.333)])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    spool.drain_into(server)
    assert _CapturingServer.captured[0].mean_cache_miss == pytest.approx(0.333, abs=1e-4)


def test_group_interning_round_trip(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 0, 10.0, group="H"), summary(0, 1, 12.0, group="L")])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    spool.drain_into(server)
    assert [s.group for s in _CapturingServer.captured] == ["H", "L"]


def test_group_table_overflow_raises_every_time_and_writes_nothing(tmp_path):
    """The 4,097th group is refused before it gets a code: a second append
    with it raises again (it used to find code 4096 and write tag 0, so the
    rows decoded as group ""), the refused batch leaves no byte and no
    half-defined group behind, and the spool keeps working."""
    spool = FileSpool(directory=str(tmp_path))
    groups = [f"g{i}" for i in range(0x0FFF)]  # with "" the table is full
    spool.append_batch(0, [summary(0, i, 10.0, group=g) for i, g in enumerate(groups)])
    size = (tmp_path / "rank00000.spool").stat().st_size
    overflowing = [summary(1, 0, 10.0, group="g7"), summary(1, 1, 10.0, group="one too many")]
    for _ in range(2):
        with pytest.raises(ReproError, match="group table overflow"):
            spool.append_batch(1, overflowing)
    assert (tmp_path / "rank00000.spool").stat().st_size == size
    assert not (tmp_path / "rank00001.spool").exists()
    # "g7" was defined only in the refused batch's buffer: rank 1's file
    # must still get its definition frame with the first row that lands.
    spool.append_batch(1, overflowing[:1])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=2, window_us=1000.0, engine="reference")
    assert FileSpool(directory=str(tmp_path)).drain_into(server) == 0x0FFF + 1
    assert [s.group for s in _CapturingServer.captured] == groups + ["g7"]


def test_group_interning_survives_fresh_reader(tmp_path):
    """The group string table is persisted in the spool files: a reader
    built in a different process (fresh instance, no shared memory with
    the writer) must decode every group, not ""."""
    writer = FileSpool(directory=str(tmp_path))
    writer.append_batch(0, [summary(0, 0, 10.0, group="H"), summary(0, 1, 12.0, group="L")])
    writer.append_batch(1, [summary(1, 0, 11.0, group="L")])
    # Second batch re-uses an already-defined group: no redefinition frame.
    writer.append_batch(0, [summary(0, 2, 10.5, group="H")])

    reader = FileSpool(directory=str(tmp_path))
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=2, window_us=1000.0, engine="reference")
    assert reader.drain_into(server) == 4
    by_rank = sorted((s.rank, s.slice_index, s.group) for s in _CapturingServer.captured)
    assert by_rank == [(0, 0, "H"), (0, 1, "L"), (0, 2, "H"), (1, 0, "L")]


def test_fresh_reader_between_incremental_drains(tmp_path):
    """Group codes defined before a reader's first drain still resolve in
    later drains (the reader's table persists across drains)."""
    writer = FileSpool(directory=str(tmp_path))
    writer.append_batch(0, [summary(0, 0, 10.0, group="band9")])
    reader = FileSpool(directory=str(tmp_path))
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    _CapturingServer.captured = []
    assert reader.drain_into(server) == 1
    writer.append_batch(0, [summary(0, 1, 10.0, group="band9")])
    assert reader.drain_into(server) == 1
    assert [s.group for s in _CapturingServer.captured] == ["band9", "band9"]


# -- wire-format round-trips -------------------------------------------------


def test_count_saturates_at_u16(tmp_path):
    import dataclasses

    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [dataclasses.replace(summary(0, 0, 10.0), count=100_000)])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    spool.drain_into(server)
    assert _CapturingServer.captured[0].count == 0xFFFF


def test_cache_miss_u16_quantization_bound(tmp_path):
    """Decoded miss rate is within one u16 quantum of the original."""
    import dataclasses

    rates = [0.0, 1e-6, 0.123456, 0.5, 0.999999, 1.0, 1.7, -0.3]
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(
        0,
        [
            dataclasses.replace(summary(0, i, 10.0), mean_cache_miss=rate)
            for i, rate in enumerate(rates)
        ],
    )
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    spool.drain_into(server)
    for original, decoded in zip(rates, _CapturingServer.captured):
        clamped = min(max(original, 0.0), 1.0)
        assert 0.0 <= decoded.mean_cache_miss <= 1.0
        assert abs(decoded.mean_cache_miss - clamped) <= 1.0 / 0xFFFF


def test_truncated_tail_does_not_corrupt_next_drain(tmp_path):
    """A partial frame at EOF (writer caught mid-append) is skipped and
    decoded intact once the rest of the bytes land — at every cut through
    several batches, with the writer keeping its descriptor and appending
    another batch after the partial drain."""
    path = os.path.join(str(tmp_path), "rank00000.spool")
    batches = [
        [summary(0, 0, 10.0), summary(0, 1, 11.0, group="tail")],
        [summary(0, 2, 12.0, group="tail")],
        [summary(0, 3, 13.0, group="é")],
    ]
    with FileSpool(directory=str(tmp_path)) as writer:
        for batch in batches:
            writer.append_batch(0, batch)
    with open(path, "rb") as fh:
        full = fh.read()
    expected = [(0, "", 10.0), (1, "tail", 11.0), (2, "tail", 12.0), (3, "é", 13.0)]

    for cut in range(1, len(full)):
        os.remove(path)
        with FileSpool(directory=str(tmp_path)) as writer:
            for batch in batches:
                writer.append_batch(0, batch)
            os.truncate(path, cut)
            reader = FileSpool(directory=str(tmp_path))
            _CapturingServer.captured = []
            server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
            reader.drain_into(server)
            with open(path, "ab") as fh:
                fh.write(full[cut:])
            reader.drain_into(server)
            # the held O_APPEND descriptor writes past the restored tail
            writer.append_batch(0, [summary(0, 4, 14.0, group="é")])
            reader.drain_into(server)
        got = [(s.slice_index, s.group, round(s.mean_duration, 3))
               for s in _CapturingServer.captured]
        assert got == expected + [(4, "é", 14.0)], f"cut at byte {cut}"


def test_nan_miss_rate_is_a_typed_error_and_writes_nothing(tmp_path):
    import math

    spool = FileSpool(directory=str(tmp_path))
    bad = [summary(0, 0, 10.0, group="fresh"), summary(0, 7, 10.0, sensor_id=9, miss=math.nan)]
    with pytest.raises(ReproError, match=r"NaN .*rank 0, sensor 9, slice 7"):
        spool.append_batch(0, bad)
    assert not (tmp_path / "rank00000.spool").exists()
    # "fresh" is not half-defined: the next batch using it defines it
    spool.append_batch(0, bad[:1])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0, engine="reference")
    assert FileSpool(directory=str(tmp_path)).drain_into(server) == 1
    assert [s.group for s in _CapturingServer.captured] == ["fresh"]


def _open_fds() -> int:
    """Descriptors this process holds (Linux)."""
    return len(os.listdir("/proc/self/fd"))


def test_unclosed_writers_leak_no_descriptor(tmp_path):
    """300 writers dropped without ``close`` each held two rank files; the
    collected spool releases them, with no ResourceWarning."""
    import gc
    import warnings

    before = _open_fds()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for i in range(300):
            spool = FileSpool(directory=str(tmp_path / f"w{i}"))
            spool.append_batch(0, [summary(0, 0, 10.0)])
            spool.append_batch(1, [summary(1, 0, 10.0)])
            del spool
        gc.collect()
    assert _open_fds() == before


def test_close_releases_descriptors_and_a_later_append_reopens(tmp_path):
    before = _open_fds()
    with FileSpool(directory=str(tmp_path)) as spool:
        for rank in range(3):
            spool.append_batch(rank, [summary(rank, 0, 10.0)])
        assert _open_fds() == before + 3
    assert _open_fds() == before
    spool.append_batch(0, [summary(0, 1, 10.0)])
    spool.close()
    assert _open_fds() == before
    server = AnalysisServer(n_ranks=3, window_us=1000.0)
    assert FileSpool(directory=str(tmp_path)).drain_into(server) == 4


def test_zero_row_batches_create_no_file_and_quiet_ranks_degrade(tmp_path):
    """A rank that only ever shipped empty batches has no spool file, so a
    drain with ``expected_ranks`` marks it degraded like a silent rank."""
    before = _open_fds()
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 0, 10.0)])
    spool.append_batch(1, [])
    spool.append_batch(1, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rank00000.spool"]
    assert _open_fds() == before + 1
    server = AnalysisServer(n_ranks=3, window_us=1000.0)
    assert spool.drain_into(server, expected_ranks=3) == 1
    assert server.degraded == {1, 2}
    spool.close()


def test_end_to_end_spooled_run(tmp_path):
    """Full pipeline with spool delivery: same matrices as direct."""
    from repro.api import run_vsensor
    from repro.runtime.transport import SpoolingRuntimeMixin
    from repro.sim import MachineConfig
    from tests.conftest import SIMPLE_MPI_PROGRAM
    import numpy as np

    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    direct = run_vsensor(SIMPLE_MPI_PROGRAM, machine, window_us=2000.0)

    # Spooled: intercept the runtime before the simulation starts.
    from repro.api import compile_and_instrument
    from repro.runtime.vsensor_hooks import VSensorRuntime
    from repro.runtime.server import AnalysisServer
    from repro.sim import Simulator

    static = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=4,
        server=AnalysisServer(n_ranks=4, window_us=2000.0, batch_period_us=100_000.0),
    )
    mixin = SpoolingRuntimeMixin(spool=FileSpool(directory=str(tmp_path)))
    mixin.attach(runtime)
    Simulator(static.program.module, machine, sensors=static.program.sensors).run(runtime)
    assert mixin.spool._fds, "the writer holds its rank files open"
    server = mixin.finish(runtime)
    assert mixin.spool._fds == {}, "finish closes the writer before it drains"

    d = direct.report.matrices[SensorType.COMPUTATION]
    s = server.performance_matrix(SensorType.COMPUTATION)
    assert s.shape == d.shape
    # Same cells populated; values agree to quantization.
    assert np.array_equal(np.isfinite(d), np.isfinite(s))
    assert np.allclose(d[np.isfinite(d)], s[np.isfinite(s)], rtol=1e-4)


# -- reliable message transport over a lossy channel -------------------------


def _batches(n_ranks=2, slices=6):
    return {
        rank: [[summary(rank, s, 10.0 + rank)] for s in range(slices)]
        for rank in range(n_ranks)
    }


def _send_all(transport, batches):
    from itertools import chain

    for rank, per_rank in batches.items():
        for i, batch in enumerate(per_rank):
            transport.send_batch(rank, batch, now=float(i) * 1000.0)
    return transport


def test_reliable_transport_recovers_from_drops():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport

    import numpy as np

    batches = _batches()
    direct = AnalysisServer(n_ranks=2, window_us=1000.0)
    for rank, per_rank in batches.items():
        for batch in per_rank:
            direct.receive_batch(rank, batch)

    lossy = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(drop_rate=0.4, reorder_rate=0.3, seed=11))
    transport = ReliableTransport(server=lossy, channel=channel)
    _send_all(transport, batches)
    transport.finish()

    assert transport.unacked() == 0
    assert channel.stats.dropped > 0, "the scenario must actually exercise loss"
    assert channel.stats.retried >= channel.stats.dropped
    d = direct.performance_matrix(SensorType.COMPUTATION)
    s = lossy.performance_matrix(SensorType.COMPUTATION)
    assert np.array_equal(d, s, equal_nan=True), "recovered matrices are bit-identical"
    assert lossy.degraded == set()


def test_next_wakeup_steps_the_schedule_finish_runs():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport

    def loaded() -> ReliableTransport:
        channel = LossyChannel(config=ChannelConfig(drop_rate=0.4, reorder_rate=0.3, seed=11))
        transport = ReliableTransport(
            server=AnalysisServer(n_ranks=2, window_us=1000.0), channel=channel
        )
        _send_all(transport, _batches())
        return transport

    finished = loaded()
    finished.finish()
    stepped = loaded()
    steps = 0
    while (wakeup := stepped.next_wakeup()) is not None:
        due = stepped.channel.next_due()
        retries = [p.next_retry_at for p in stepped._pending.values()]
        assert wakeup == min(retries + ([] if due is None else [due]))
        stepped.pump(max(stepped.clock, wakeup))
        steps += 1
    assert steps > 1, "the scenario must leave work for the quiescence drive"
    assert finished.next_wakeup() is None
    assert stepped.unacked() == 0 and stepped.channel.pending() == 0
    assert stepped.clock == finished.clock
    assert stepped.channel.stats == finished.channel.stats
    assert stepped.server.performance_matrix(SensorType.COMPUTATION).tobytes() == (
        finished.server.performance_matrix(SensorType.COMPUTATION).tobytes()
    )


def test_reliable_transport_dedupes_channel_duplicates():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(dup_rate=0.9, seed=3))
    transport = ReliableTransport(server=server, channel=channel)
    _send_all(transport, _batches())
    transport.finish()

    assert channel.stats.duplicated > 0
    assert server.duplicate_batches > 0
    assert server.duplicate_summaries == 0, "duplicates die at the seq watermark"
    # Every unique summary arrived exactly once in effect.
    assert server.stored_summaries == 12


def test_reliable_transport_gives_up_and_marks_degraded():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(drop_rate=0.97, seed=5))
    policy = RetryPolicy(timeout_us=1000.0, max_attempts=3)
    transport = ReliableTransport(server=server, channel=channel, policy=policy)
    _send_all(transport, _batches())
    transport.finish()

    assert transport.unacked() == 0, "finish() always terminates"
    assert sum(transport.gave_up.values()) > 0
    assert server.degraded, "abandoned ranks are marked degraded"
    # Degraded ranks must not crash matrix rendering.
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert matrix.shape[0] == 2
