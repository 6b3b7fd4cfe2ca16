"""The retransmit heap against the dict walk it replaced.

``ReliableTransport`` keeps its retry timers in a min-heap with lazy
deletion; :class:`tests.runtime.transport_oracle.WalkTransport` scans
every pending batch on every pump.  Over random channels, retry policies
(a budget of one attempt included, so batches are abandoned) and a server
that rejects with retry-after hints, both must make the same channel
draws: equal stats, clocks, abandoned batches, degraded ranks, delivery
counters, matrices, and the same ``(rank, seq)`` sequence handed to the
server.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs import Obs
from repro.runtime.channel import ChannelConfig, LossyChannel
from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import ReliableTransport, RetryPolicy
from repro.sensors.model import SensorType
from tests.runtime.transport_oracle import WalkTransport

N_RANKS = 3


class HintingServer:
    """An endpoint that rejects every ``reject_every``-th delivery with a
    retry-after hint ``hint_us`` past the transport's clock (the sharded
    front's back-pressure), and records what it was handed."""

    def __init__(self, reject_every: int, hint_us: float) -> None:
        self.inner = AnalysisServer(n_ranks=N_RANKS, window_us=1000.0)
        self.reject_every = reject_every
        self.hint_us = hint_us
        self.handed: list[tuple[int, int]] = []
        self.clock = lambda: 0.0
        self._hints: dict[tuple[int, int], float] = {}

    @property
    def batch_period_us(self) -> float:
        return self.inner.batch_period_us

    def receive_batch(self, rank, summaries, seq=None, encoded_bytes=None) -> bool:
        self.handed.append((rank, seq))
        if self.reject_every and len(self.handed) % self.reject_every == 0:
            self._hints[(rank, seq)] = self.clock() + self.hint_us
            return False
        return self.inner.receive_batch(rank, summaries, seq=seq, encoded_bytes=encoded_bytes)

    def pop_retry_hint(self, rank: int, seq: int) -> float | None:
        return self._hints.pop((rank, seq), None)

    def mark_degraded(self, rank: int) -> None:
        self.inner.mark_degraded(rank)


def _row(rank: int, slice_index: int) -> SliceSummary:
    return SliceSummary(
        rank=rank, sensor_id=1, sensor_type=SensorType.COMPUTATION, group="",
        slice_index=slice_index, t_slice_start=slice_index * 1000.0,
        mean_duration=10.0 + rank + slice_index % 3, count=4, mean_cache_miss=0.1,
    )


channels = st.builds(
    ChannelConfig,
    drop_rate=st.sampled_from([0.0, 0.3, 0.7]),
    dup_rate=st.sampled_from([0.0, 0.2]),
    reorder_rate=st.sampled_from([0.0, 0.3]),
    delay_us=st.sampled_from([0.0, 200.0]),
    jitter_us=st.sampled_from([0.0, 300.0]),
    reorder_delay_us=st.sampled_from([1_000.0, 250_000.0]),
    seed=st.integers(0, 2**16),
)
policies = st.builds(
    RetryPolicy,
    timeout_us=st.sampled_from([0.0, 100.0, 1_000.0, 50_000.0]),
    backoff=st.sampled_from([1.0, 2.0]),
    max_timeout_us=st.sampled_from([5_000.0, 1_600_000.0]),
    max_attempts=st.sampled_from([1, 2, 3, 16]),
)
#: (rank, gap to the previous send in µs, extra pump offset or None)
events = st.lists(
    st.tuples(
        st.integers(0, N_RANKS - 1),
        st.sampled_from([0.0, 50.0, 500.0, 5_000.0, 100_000.0]),
        st.none() | st.sampled_from([-1_000.0, 0.0, 700.0, 60_000.0]),
    ),
    max_size=25,
)


def _drive(cls, channel, policy, hints, sends):
    server = HintingServer(*hints)
    obs = Obs.create()
    transport = cls(
        server=server, channel=LossyChannel(config=channel), policy=policy,
        metrics=obs.metrics,
    )
    server.clock = lambda: transport.clock
    now, slices = 0.0, [0] * N_RANKS
    for rank, gap, pump_offset in sends:
        now += gap
        transport.send_batch(rank, [_row(rank, slices[rank])], now)
        slices[rank] += 1
        if pump_offset is not None:
            transport.pump(now + pump_offset)
    transport.finish()
    return transport, server, obs.metrics.as_dict()["counters"]


@settings(max_examples=150, deadline=None)
@given(
    channels,
    policies,
    st.tuples(st.sampled_from([0, 2, 3, 5]), st.sampled_from([0.0, 1_000.0, 200_000.0])),
    events,
)
def test_heap_schedule_matches_the_dict_walk(channel, policy, hints, sends):
    heap, heap_server, heap_counters = _drive(ReliableTransport, channel, policy, hints, sends)
    walk, walk_server, walk_counters = _drive(WalkTransport, channel, policy, hints, sends)

    assert heap_server.handed == walk_server.handed
    assert heap.channel.stats == walk.channel.stats
    assert heap.clock == walk.clock
    assert heap.gave_up == walk.gave_up
    assert heap_server.inner.degraded == walk_server.inner.degraded
    assert heap_counters == walk_counters
    assert heap.unacked() == walk.unacked() == 0
    assert heap.next_wakeup() is None
    for stype in SensorType:
        assert (
            heap_server.inner.performance_matrix(stype).tobytes()
            == walk_server.inner.performance_matrix(stype).tobytes()
        )
