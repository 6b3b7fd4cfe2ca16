"""Transports between ranks and the analysis server (§5.4).

The paper: data reaches the analysis server "by processes sending messages
to analysis-server or by updating shared files."  The default path in this
package is direct in-memory delivery (the message analogue).  This module
adds the two hardened alternatives:

* :class:`FileSpool` — the shared-file path.  Each rank appends binary
  frames to its own spool file through one descriptor the spool holds
  for its lifetime, one ``os.write`` per batch, so a reader in another
  process sees whole batches; the server drains the spools, either
  periodically during the run or once at the end.  The spool persists the
  dynamic-rule group string table inline (a fresh reader process decodes
  groups without the writer's memory) and a drain only ever consumes
  complete frames, so a truncated tail — a writer caught mid-append —
  is left for the next drain instead of corrupting the stream.
* :class:`ReliableTransport` — the message path over an unreliable
  channel (:mod:`repro.runtime.channel`).  Batches carry per-rank
  sequence numbers; the endpoint accepting one is its ack, batches not
  yet accepted are retransmitted on timeout with exponential backoff,
  and the endpoint's watermark deduplicates the redeliveries.  Timers
  live in a min-heap; the retransmits due in one pump go out in send
  order, which fixes every channel RNG draw.  Delivery guarantee:
  at-least-once on the wire, exactly-once effect in the matrices.  Ranks
  whose batches exhaust their retry budget are marked *degraded* on the
  server instead of crashing the run.

The record wire format matches ``SliceSummary``'s accounted size, so the
§6.4 volume numbers are transport-independent.
"""

from __future__ import annotations

import heapq
import math
import os
import struct
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.runtime.channel import LossyChannel
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns, SummaryView
from repro.runtime.server import AnalysisServer

#: one record frame: the header — rank (u32), kind (u16, 1), tag (u16:
#: sensor type << 12 | group code) — then the record — sensor id (u32),
#: slice index (u32), mean duration (f32), count (u16), mean cache miss
#: scaled to u16, two pad bytes: 16 bytes, matching SliceSummary.WIRE_BYTES
_FRAME = struct.Struct("<IHHIIfHHxx")
_FRAME_HEADER = struct.Struct("<IHH")  # rank (u32), kind (u16), tag (u16)
_GROUP_LEN = struct.Struct("<H")

#: ``kind`` value marking a group-definition frame; record frames carry
#: their (historical) record count of 1 there.
_GROUP_FRAME = 0xFFFF

#: a record frame's tag bits per sensor type, keyed by the enum's value
#: (hashing the enum member itself runs Python code per row)
_TYPE_TAG = {stype._value_: code << 12 for stype, code in SENSOR_TYPE_CODE.items()}

#: one complete record frame (header + packed record) as a structured
#: dtype — lets a drain decode a run of record frames with a single
#: ``np.frombuffer`` view instead of per-record ``struct.unpack_from``
_FRAME_DTYPE = np.dtype(
    [
        ("rank", "<u4"),
        ("kind", "<u2"),
        ("tag", "<u2"),
        ("sensor", "<u4"),
        ("slice", "<u4"),
        ("dur", "<f4"),
        ("count", "<u2"),
        ("miss", "<u2"),
        ("pad", "V2"),
    ]
)
assert _FRAME_DTYPE.itemsize == _FRAME.size


def _close_all(fds: dict[int, int]) -> None:
    while fds:
        os.close(fds.popitem()[1])


@dataclass
class FileSpool:
    """Rank-side writer plus server-side drainer over a spool directory.

    Writer and reader may be different :class:`FileSpool` instances in
    different processes: the group string table travels inside the spool
    files as definition frames, emitted into each rank's file before the
    first record that uses the group.

    The writer holds one ``O_APPEND`` descriptor per rank file from the
    rank's first non-empty batch until :meth:`close` (or the end of a
    ``with`` block); a spool dropped unclosed releases them when it is
    collected.
    """

    directory: str
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for spool I/O
    #: counters
    metrics: object | None = None
    #: writer-side intern table (dynamic-rule group string -> code); "" is 0
    _groups: dict[str, int] = field(default_factory=lambda: {"": 0})
    #: writer-side: group string -> code for the groups already defined in
    #: each rank's file
    _defined: dict[int, dict[str, int]] = field(default_factory=dict)
    #: writer-side: the open descriptor of each rank's file
    _fds: dict[int, int] = field(default_factory=dict)
    #: reader-side: group tables decoded per rank file
    _reader_groups: dict[int, dict[int, str]] = field(default_factory=dict)
    _offsets: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        weakref.finalize(self, _close_all, self._fds)

    def close(self) -> None:
        """Close the rank files' descriptors (a later append reopens)."""
        _close_all(self._fds)

    def __enter__(self) -> "FileSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _path(self, rank: int) -> str:
        return os.path.join(self.directory, f"rank{rank:05d}.spool")

    def _group_code(self, group: str) -> int:
        code = self._groups.get(group)
        if code is None:
            code = len(self._groups)
            if code > 0x0FFF:
                raise ReproError("spool group table overflow (max 4096 groups)")
            self._groups[group] = code
        return code

    # -- rank side ---------------------------------------------------------

    def append_batch(self, rank: int, summaries: Sequence[SliceSummary]) -> None:
        """Append one batch to the rank's spool file in one write.

        Each row is one packed record frame; a group's definition frame
        goes just before its first row in the rank's file.  The batch is
        encoded whole before the one ``os.write`` on the rank's held
        descriptor, so a refused batch (group table overflow, NaN miss
        rate) leaves no byte and no half-defined group, and a zero-row
        batch opens nothing.

        A spool directory carries one tenant (a second tenant is a second
        directory); each rank's stream carries its own group-definition
        frames, so a reader can drain it without the writer's memory.
        """
        defined = self._defined.get(rank)
        if defined is None:
            defined = self._defined[rank] = {"": 0}
        #: groups this batch defines; joined to ``defined`` once on disk
        fresh: dict[str, int] = {}
        chunks: list[bytes] = []
        append, pack, type_tag = chunks.append, _FRAME.pack, _TYPE_TAG
        s = None
        try:
            for s in summaries:
                group = s.group
                code = defined.get(group)
                if code is None:
                    code = fresh.get(group)
                    if code is None:
                        code = fresh[group] = self._group_code(group)
                        encoded = group.encode("utf-8")
                        append(_FRAME_HEADER.pack(rank, _GROUP_FRAME, code))
                        append(_GROUP_LEN.pack(len(encoded)))
                        append(encoded)
                count, miss = s.count, s.mean_cache_miss
                append(pack(
                    rank, 1, type_tag[s.sensor_type._value_] | code,
                    s.sensor_id & 0xFFFFFFFF, s.slice_index & 0xFFFFFFFF, s.mean_duration,
                    count if count < 0xFFFF else 0xFFFF,
                    # clamped to [0, 1]; NaN falls through to int() and raises
                    0 if miss <= 0.0 else 0xFFFF if miss >= 1.0 else int(miss * 0xFFFF),
                ))
        except ValueError:
            if s is None or not math.isnan(s.mean_cache_miss):
                raise
            raise ReproError(
                f"spool: NaN mean cache miss rate for rank {rank}, sensor {s.sensor_id}, "
                f"slice {s.slice_index}; nothing of the batch was written"
            ) from None
        if chunks:
            self._write(rank, b"".join(chunks))
            defined.update(fresh)
        if self.metrics is not None:
            self.metrics.counter("spool.records_written").inc(len(summaries))

    def _write(self, rank: int, data: bytes) -> None:
        fd = self._fds.get(rank)
        if fd is None:
            fd = self._fds[rank] = os.open(
                self._path(rank), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
            )
        # One write per batch; a short one (full disk, signal) is finished
        # so the file never holds a torn frame followed by a later batch.
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]

    # -- server side ----------------------------------------------------------

    def drain_into(
        self,
        server: AnalysisServer,
        slice_us: float = 1000.0,
        expected_ranks: int | None = None,
    ) -> int:
        """Read all new spool data into the server.

        With ``expected_ranks`` set, ranks that never produced a spool file
        are marked degraded on the server — a quiet spool must not crash
        (or silently skew) matrix rendering.  Returns summaries read.
        """
        total = 0
        present: set[int] = set()
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith("rank") and name.endswith(".spool")):
                continue
            rank = int(name[len("rank") : -len(".spool")])
            path = os.path.join(self.directory, name)
            present.add(rank)
            offset = self._offsets.get(rank, 0)
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
            count, consumed = self._decode_into(server, rank, data, slice_us)
            # Only complete frames advance the offset: a truncated tail is
            # re-read (and by then completed) on the next drain.
            self._offsets[rank] = offset + consumed
            total += count
        if expected_ranks is not None:
            for rank in range(expected_ranks):
                if rank not in present:
                    server.mark_degraded(rank)
        if self.metrics is not None:
            self.metrics.counter("spool.records_drained").inc(total)
        return total

    def _decode_into(
        self, server: AnalysisServer, rank: int, data: bytes, slice_us: float
    ) -> tuple[int, int]:
        """Decode complete frames; return (records decoded, bytes consumed).

        Record frames are decoded zero-copy: a maximal run of complete
        record frames becomes one ``np.frombuffer`` structured view over
        ``data`` and goes to the server as column arrays
        (:meth:`AnalysisServer.receive_batch_columns`).  Group-definition
        frames (variable length, rare) stay on the scalar path.  Frame
        boundaries and error behaviour are unchanged: a truncated tail is
        left for the next drain, an unknown frame kind raises.
        """
        groups = self._reader_groups.setdefault(rank, {0: ""})
        n = len(data)
        pos = 0
        count = 0
        runs: list[np.ndarray] = []
        while pos + _FRAME_HEADER.size <= n:
            _rank, kind, tag = _FRAME_HEADER.unpack_from(data, pos)
            body = pos + _FRAME_HEADER.size
            if kind == _GROUP_FRAME:
                if body + _GROUP_LEN.size > n:
                    break
                (length,) = _GROUP_LEN.unpack_from(data, body)
                if body + _GROUP_LEN.size + length > n:
                    break
                start = body + _GROUP_LEN.size
                groups[tag] = data[start : start + length].decode("utf-8")
                pos = start + length
                continue
            if kind != 1:
                raise ReproError(
                    f"corrupt spool for rank {rank}: unknown frame kind {kind:#x} "
                    f"at offset {self._offsets.get(rank, 0) + pos}"
                )
            whole_frames = (n - pos) // _FRAME_DTYPE.itemsize
            if whole_frames == 0:
                break  # truncated record frame: re-read next drain
            frames = np.frombuffer(data, dtype=_FRAME_DTYPE, count=whole_frames, offset=pos)
            # The run ends at the first non-record frame (group definition
            # or corruption — the outer loop re-examines it byte-wise).
            breaks = np.flatnonzero(frames["kind"] != 1)
            run = int(breaks[0]) if len(breaks) else whole_frames
            runs.append(frames[:run])
            count += run
            pos += run * _FRAME_DTYPE.itemsize
        if count:
            frames = runs[0] if len(runs) == 1 else np.concatenate(runs)
            tags = frames["tag"]
            columns = SummaryColumns(
                rank=np.full(count, rank),
                sensor_id=frames["sensor"].astype(np.int64),
                sensor_type_code=(tags >> 12).astype(np.int64),
                group_code=(tags & 0x0FFF).astype(np.int64),
                group_table=groups,
                slice_index=frames["slice"].astype(np.int64),
                t_slice_start=frames["slice"].astype(np.float64) * slice_us,
                mean_duration=frames["dur"],
                count=frames["count"].astype(np.int64),
                mean_cache_miss=frames["miss"].astype(np.float64) / 0xFFFF,
            )
            server.receive_batch_columns(rank, columns, encoded_bytes=pos)
        return count, pos


@dataclass(slots=True)
class SpoolingRuntimeMixin:
    """Helper wiring a VSensorRuntime to a FileSpool: replace the direct
    ``server.receive_batch`` delivery with spool writes, then drain."""

    spool: FileSpool
    _direct_server: AnalysisServer | None = None

    def attach(self, runtime) -> None:
        direct_server = runtime.server
        spool = self.spool

        class _SpoolWriter:
            """Duck-typed stand-in for the server on the rank side."""

            batch_period_us = direct_server.batch_period_us

            def receive_batch(self, rank: int, summaries: list[SliceSummary]) -> None:
                spool.append_batch(rank, summaries)

        runtime.server = _SpoolWriter()  # type: ignore[assignment]
        self._direct_server = direct_server

    def finish(self, runtime, slice_us: float = 1000.0) -> AnalysisServer:
        """Close the writer, drain everything and restore the real server
        on the runtime."""
        server = self._direct_server
        self.spool.close()
        self.spool.drain_into(server, slice_us=slice_us, expected_ranks=runtime.n_ranks)
        runtime.server = server
        return server


# ---------------------------------------------------------------------------
# Reliable message transport over a lossy channel
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RetryPolicy:
    """Rank-side retransmission parameters."""

    #: first retransmit after this much virtual time without an ack
    timeout_us: float = 50_000.0
    #: exponential backoff factor per attempt
    backoff: float = 2.0
    #: backoff ceiling
    max_timeout_us: float = 1_600_000.0
    #: total send attempts per batch before the rank is marked degraded
    max_attempts: int = 16

    def retry_delay(self, attempts: int) -> float:
        return min(self.timeout_us * self.backoff ** (attempts - 1), self.max_timeout_us)


@dataclass(slots=True)
class _Pending:
    rank: int
    seq: int
    #: the batch as handed to :meth:`ReliableTransport.send_batch` (a row
    #: list or a detector's :class:`SummaryView`), never copied
    payload: Sequence
    attempts: int
    next_retry_at: float
    #: send ordinal across the transport's ranks: retransmits due in one
    #: pump go out in this order
    order: int


@dataclass(slots=True)
class ReliableTransport:
    """Sequenced, acked, retrying delivery of one job's rank batches.

    Duck-types the server surface :class:`VSensorRuntime` uses (install
    with ``runtime.server = transport``): rank-side sends go through the
    lossy channel and due envelopes are pumped into the endpoint (an
    :class:`AnalysisServer` or a service ``TenantPort``).  Acceptance is
    the ack: ``receive_batch`` returns True exactly when the endpoint
    consumed the sequence number, and that return retires the pending
    batch.  Acks are never lost (the server's durable watermark being
    visible to ranks, the shared-file analogue); the simulated faults
    apply to the data path.
    """

    server: AnalysisServer
    channel: LossyChannel = field(default_factory=LossyChannel)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: virtual clock: max timestamp observed from sends/pumps
    clock: float = 0.0
    #: batches abandoned after max_attempts, per rank
    gave_up: dict[int, int] = field(default_factory=dict)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for delivery
    #: counters; ``None`` keeps the send/pump paths at one branch each
    metrics: object | None = None
    _next_seq: dict[int, int] = field(default_factory=dict)
    #: sent batches neither accepted nor abandoned, by (rank, seq)
    _pending: dict[tuple[int, int], _Pending] = field(default_factory=dict)
    #: retransmit timers: a min-heap of ``(next_retry_at, order, (rank,
    #: seq))``; an entry whose batch is gone or was re-timed is stale and
    #: skipped when it surfaces
    _schedule: list[tuple[float, int, tuple[int, int]]] = field(default_factory=list)
    #: batches sent so far (the next send ordinal)
    _sends: int = 0
    #: group strings already encoded once per rank stream (codec state: a
    #: group definition frame goes on the wire only before its first use)
    _sent_groups: dict[int, set[str]] = field(default_factory=dict)
    #: encoded wire size per (rank, seq), kept past the ack: duplicates and
    #: stale retransmits arriving later are accounted at the original size
    _encoded: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def batch_period_us(self) -> float:
        return self.server.batch_period_us

    def _encoded_size(self, rank: int, summaries: Sequence) -> int:
        """Wire size of the batch under the spool codec (headers + group
        definition frames included) — what ``bytes_received`` accounts."""
        sent = self._sent_groups.setdefault(rank, {""})
        if isinstance(summaries, SummaryView):
            groups = summaries.groups()
        else:
            groups = {s.group for s in summaries}
        size = _FRAME.size * len(summaries)
        for group in groups - sent:
            sent.add(group)
            size += _FRAME_HEADER.size + _GROUP_LEN.size + len(group.encode("utf-8"))
        return size

    # -- rank side ---------------------------------------------------------

    def send_batch(self, rank: int, summaries: Sequence, now: float) -> int:
        """Assign the next sequence number and launch the batch, which the
        caller must not mutate afterwards (it is held, not copied)."""
        self.clock = max(self.clock, now)
        seq = self._next_seq.get(rank, 0)
        self._next_seq[rank] = seq + 1
        self._encoded[(rank, seq)] = self._encoded_size(rank, summaries)
        self.channel.send(rank, seq, summaries, self.clock)
        retry_at = self.clock + self.policy.retry_delay(1)
        self._pending[(rank, seq)] = _Pending(
            rank=rank, seq=seq, payload=summaries, attempts=1,
            next_retry_at=retry_at, order=self._sends,
        )
        heapq.heappush(self._schedule, (retry_at, self._sends, (rank, seq)))
        self._sends += 1
        if self.metrics is not None:
            self.metrics.counter("transport.batches_sent").inc()
        self.pump(self.clock)
        return seq

    # -- pump --------------------------------------------------------------

    def pump(self, now: float) -> None:
        """Deliver due envelopes (an accepted one retires its pending
        batch), then retransmit or abandon batches whose timer ran out, in
        send order."""
        self.clock = max(self.clock, now)
        for envelope in self.channel.deliver_due(self.clock):
            key = (envelope.rank, envelope.seq)
            accepted = self.server.receive_batch(
                envelope.rank,
                envelope.payload,
                seq=envelope.seq,
                encoded_bytes=self._encoded.get(key),
            )
            if accepted:
                # (a late copy of an abandoned batch has no entry to retire)
                if self._pending.pop(key, None) is not None and self.metrics is not None:
                    self.metrics.counter("transport.batches_acked").inc()
            else:
                # An admission-controlled server (the sharded front) can
                # attach a retry-after hint to a rejection; honoring it
                # re-times the pending retransmit instead of counting the
                # copy as late (the batch was on time — the queue was full).
                retry_at = None
                hint = getattr(self.server, "pop_retry_hint", None)
                if hint is not None:
                    retry_at = hint(envelope.rank, envelope.seq)
                if retry_at is not None:
                    pending = self._pending.get(key)
                    if pending is not None and retry_at > pending.next_retry_at:
                        pending.next_retry_at = retry_at
                        heapq.heappush(self._schedule, (retry_at, pending.order, key))
                    if self.metrics is not None:
                        self.metrics.counter("transport.backpressure_deferred").inc()
                else:
                    self.channel.stats.late += 1
        schedule = self._schedule
        due: list[tuple[int, tuple[int, int], _Pending]] = []
        while schedule and schedule[0][0] <= self.clock:
            retry_at, order, key = heapq.heappop(schedule)
            if (pending := self._timed(retry_at, key)) is not None:
                due.append((order, key, pending))
        # Heap order is (time, order); the channel's draws follow send order.
        due.sort()
        for order, key, pending in due:
            if pending.attempts >= self.policy.max_attempts:
                del self._pending[key]
                self.gave_up[pending.rank] = self.gave_up.get(pending.rank, 0) + 1
                self.server.mark_degraded(pending.rank)
                if self.metrics is not None:
                    self.metrics.counter("transport.batches_abandoned").inc()
                continue
            self.channel.stats.retried += 1
            if self.metrics is not None:
                self.metrics.counter("transport.retries").inc()
            pending.attempts += 1
            self.channel.send(pending.rank, pending.seq, pending.payload, self.clock)
            pending.next_retry_at = self.clock + self.policy.retry_delay(pending.attempts)
            heapq.heappush(schedule, (pending.next_retry_at, order, key))

    def _timed(self, retry_at: float, key: tuple[int, int]) -> _Pending | None:
        """The pending batch a schedule entry still times, else ``None``."""
        pending = self._pending.get(key)
        if pending is not None and pending.next_retry_at == retry_at:
            return pending
        return None

    def unacked(self) -> int:
        return len(self._pending)

    def next_wakeup(self) -> float | None:
        """Earliest virtual time at which :meth:`pump` has work: the next
        in-flight arrival or pending retransmit; ``None`` once quiescent."""
        schedule = self._schedule
        while schedule and self._timed(schedule[0][0], schedule[0][2]) is None:
            heapq.heappop(schedule)
        due = self.channel.next_due()
        if not schedule:
            return due
        return schedule[0][0] if due is None else min(schedule[0][0], due)

    def finish(self) -> AnalysisServer:
        """Drive virtual time forward until every batch is acked or abandoned."""
        while (wakeup := self.next_wakeup()) is not None:
            self.pump(max(self.clock, wakeup))
        return self.server

    # -- server duck-typing for live reporting -----------------------------

    def performance_matrix(self, sensor_type):
        return self.server.performance_matrix(sensor_type)

    def mean_rank_performance(self, sensor_type):
        return self.server.mean_rank_performance(sensor_type)

    def detect_inter_process(self, min_ranks: int = 2):
        return self.server.detect_inter_process(min_ranks)
