"""Length-prefixed framed wire protocol for the process fabric.

The pool parent ↔ pool worker hop of :mod:`repro.parallel` speaks a
byte-stream protocol over a connected ``AF_UNIX`` socket pair: a fixed
frame header (payload length, frame type, flags) followed by the
payload.  Frames are the *only* unit
of exchange; a reader either gets a whole frame or, on a dead peer, a
clean EOF it can turn into a restart.

Batch payloads reuse the zero-copy structured-dtype technique of the
:mod:`repro.runtime.transport` spool codec: rows travel as one
``numpy`` structured array preceded by an interned group-string table,
and the decoder reconstructs them with a single ``np.frombuffer`` view
over the frame body.  Unlike the spool codec (whose ``f32`` durations
are fine for §6.4 volume accounting), the fabric carries every float at
full ``f64`` fidelity: the process boundary must be *bit-invisible* —
``decode_rows(encode_rows(rows))`` reproduces each
:class:`~repro.runtime.records.SliceSummary` exactly, which is what
lets recorded batches cross a process boundary and still merge into
bit-identical matrices.
"""

from __future__ import annotations

import pickle
import socket
import struct

import numpy as np

from repro.errors import ReproError
from repro.runtime.records import (
    CODE_SENSOR_TYPE,
    SENSOR_TYPE_CODE,
    SliceSummary,
    SummaryColumns,
)

#: frame header: payload length (u32), frame type (u16), flags (u16)
FRAME_HEADER = struct.Struct("<IHH")

#: hard ceiling on one frame's payload — a corrupt length prefix must
#: fail loudly instead of attempting a multi-GiB allocation
MAX_FRAME_BYTES = 256 * 1024 * 1024

# -- frame types ------------------------------------------------------------
#: pool parent -> worker: one pickled task (index, payload)
T_TASK = 1
#: pool worker -> parent: one pickled result (index, value)
T_RESULT = 2
#: pool worker -> parent: a task raised; payload is (index, traceback text)
T_ERROR = 3
#: either direction: orderly shutdown request
T_SHUTDOWN = 4

_GROUP_COUNT = struct.Struct("<H")
_GROUP_ENTRY = struct.Struct("<HH")      # code, utf-8 byte length
_ROW_COUNT = struct.Struct("<I")

#: one summary row at full fidelity (the spool codec's structured-dtype
#: trick, widened so the wire round-trip is exact)
ROW_DTYPE = np.dtype(
    [
        ("rank", "<u4"),
        ("sensor", "<u4"),
        ("type_code", "<u2"),
        ("group_code", "<u2"),
        ("slice", "<u8"),
        ("t_start", "<f8"),
        ("dur", "<f8"),
        ("count", "<u8"),
        ("miss", "<f8"),
    ]
)


class WireError(ReproError):
    """A malformed frame or oversized payload on a fabric connection."""


class PeerDied(ReproError):
    """The other end of a fabric connection is gone (EOF / broken pipe)."""


# ---------------------------------------------------------------------------
# framing over a connected socket
# ---------------------------------------------------------------------------


class FrameConn:
    """One end of a framed fabric connection.

    Thin wrapper over a connected stream socket: :meth:`send` writes one
    length-prefixed frame, :meth:`recv` blocks for the next whole frame.
    Both raise :class:`PeerDied` when the other process is gone, which
    is the signal the fabric turns into a worker restart.  The optional
    ``frames`` counter (an :class:`~repro.obs.metrics.Counter`) ticks
    once per frame in either direction — the ``parallel.frames`` metric.
    """

    def __init__(self, sock: socket.socket, frames=None) -> None:
        self.sock = sock
        self.frames = frames
        self._recv_buf = bytearray()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, ftype: int, payload: bytes = b"") -> None:
        if len(payload) > MAX_FRAME_BYTES:
            raise WireError(f"frame payload too large ({len(payload)} bytes)")
        try:
            self.sock.sendall(FRAME_HEADER.pack(len(payload), ftype, 0) + payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise PeerDied(f"fabric peer died during send: {exc}") from exc
        if self.frames is not None:
            self.frames.inc()

    def _read_exact(self, n: int) -> bytes:
        buf = self._recv_buf
        while len(buf) < n:
            try:
                chunk = self.sock.recv(65536)
            except (ConnectionResetError, OSError) as exc:
                raise PeerDied(f"fabric peer died during recv: {exc}") from exc
            if not chunk:
                raise PeerDied("fabric peer closed the connection")
            buf.extend(chunk)
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def has_buffered_frame(self) -> bool:
        """True if a whole frame is already in the userspace read buffer.

        ``_read_exact`` slurps up to 64 KiB per socket read, so one
        ``recv`` may buffer the *next* frames too.  A readiness poll
        (``select``/``epoll``) only sees the socket — callers multiplexing
        over many connections must drain buffered frames after every
        ``recv`` or they will block on a socket whose data has already
        been read (see :meth:`WorkerPool.run`'s collection loop).
        """
        buf = self._recv_buf
        if len(buf) < FRAME_HEADER.size:
            return False
        length, _ftype, _flags = FRAME_HEADER.unpack_from(buf, 0)
        return len(buf) >= FRAME_HEADER.size + length

    def recv(self) -> tuple[int, bytes]:
        """Block for the next whole frame; ``(type, payload)``."""
        header = self._read_exact(FRAME_HEADER.size)
        length, ftype, _flags = FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
        payload = self._read_exact(length) if length else b""
        if self.frames is not None:
            self.frames.inc()
        return ftype, payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def socket_pair(frames=None) -> tuple[FrameConn, FrameConn]:
    """A connected (parent, child) pair of framed connections."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    return FrameConn(a, frames=frames), FrameConn(b)


# ---------------------------------------------------------------------------
# pickled payloads (pool tasks/results)
# ---------------------------------------------------------------------------


def pack_obj(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_obj(payload: bytes):
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# batch row codec (structured dtype + interned group table)
# ---------------------------------------------------------------------------


def encode_rows(rows: list[SliceSummary]) -> bytes:
    """Encode summaries as [group table][row count][structured rows].

    The group table interns each distinct group string once per frame
    (frames are self-describing, so a replay into a freshly restarted
    worker needs no codec state).  Row order is preserved exactly.
    """
    codes: dict[str, int] = {}
    chunks: list[bytes] = []
    array = np.empty(len(rows), dtype=ROW_DTYPE)
    for i, s in enumerate(rows):
        code = codes.get(s.group)
        if code is None:
            code = codes[s.group] = len(codes)
            if code > 0xFFFF:
                raise WireError("row batch uses more than 65536 distinct groups")
        array[i] = (
            s.rank,
            s.sensor_id,
            SENSOR_TYPE_CODE[s.sensor_type],
            code,
            s.slice_index,
            s.t_slice_start,
            s.mean_duration,
            s.count,
            s.mean_cache_miss,
        )
    chunks.append(_GROUP_COUNT.pack(len(codes)))
    for group, code in codes.items():
        encoded = group.encode("utf-8")
        chunks.append(_GROUP_ENTRY.pack(code, len(encoded)))
        chunks.append(encoded)
    chunks.append(_ROW_COUNT.pack(len(rows)))
    chunks.append(array.tobytes())
    return b"".join(chunks)


def decode_rows(data: bytes, job: int = 0) -> list[SliceSummary]:
    """Decode one :func:`encode_rows` payload back into summaries.

    The row block is read with a single zero-copy ``np.frombuffer``
    view; per-rank runs are materialized through the same
    :class:`~repro.runtime.records.SummaryColumns` path the spool drain
    uses, so every field round-trips bit-exactly (all floats are f64 on
    the wire).
    """
    (n_groups,) = _GROUP_COUNT.unpack_from(data, 0)
    pos = _GROUP_COUNT.size
    groups: dict[int, str] = {}
    for _ in range(n_groups):
        code, length = _GROUP_ENTRY.unpack_from(data, pos)
        pos += _GROUP_ENTRY.size
        groups[code] = data[pos : pos + length].decode("utf-8")
        pos += length
    (n_rows,) = _ROW_COUNT.unpack_from(data, pos)
    pos += _ROW_COUNT.size
    expected = pos + n_rows * ROW_DTYPE.itemsize
    if len(data) < expected:
        raise WireError(
            f"truncated row block: need {expected} bytes, have {len(data)}"
        )
    array = np.frombuffer(data, dtype=ROW_DTYPE, count=n_rows, offset=pos)
    out: list[SliceSummary] = []
    start = 0
    while start < n_rows:
        rank = int(array["rank"][start])
        end = start + 1
        while end < n_rows and array["rank"][end] == rank:
            end += 1
        run = array[start:end]
        columns = SummaryColumns(
            rank=rank,
            sensor_id=run["sensor"],
            sensor_type_code=run["type_code"],
            group_code=run["group_code"],
            group_table=groups,
            slice_index=run["slice"],
            t_slice_start=run["t_start"],
            mean_duration=run["dur"],
            count=run["count"],
            mean_cache_miss=run["miss"],
            job=job,
        )
        out.extend(columns.to_summaries())
        start = end
    return out
