"""Fabric wire protocol: framing and the exact row codec.

The codec contract is *bit-exactness*: ``decode_rows(encode_rows(rows))``
must reproduce every :class:`~repro.runtime.records.SliceSummary` field
including the last float bit — that is what makes the process boundary
invisible to the merged matrices.  Framing must deliver whole frames or
fail loudly (truncation, oversize, dead peer), never hand back a torn
payload.
"""

from __future__ import annotations

import math

import pytest

from repro.parallel.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PeerDied,
    WireError,
    decode_rows,
    encode_rows,
    socket_pair,
)
from repro.runtime.records import SliceSummary
from repro.sensors.model import SensorType
from tests.service.util import make_summary


def _awkward_rows(job: int = 7) -> list[SliceSummary]:
    """Rows exercising every field with bit-pattern-hostile floats."""
    rows = []
    durations = [0.1, 1.0 / 3.0, math.pi * 1e3, 5e-324, 1.7e308 / 1e300]
    for i, duration in enumerate(durations):
        rows.append(
            SliceSummary(
                rank=i % 3,
                sensor_id=100 + i,
                sensor_type=SensorType.COMPUTATION if i % 2 else SensorType.NETWORK,
                group="" if i == 0 else f"grp-{i % 2}",
                slice_index=i * 17,
                t_slice_start=duration * 7.0,
                mean_duration=duration,
                count=i + 1,
                mean_cache_miss=duration / 9.0,
                job_id=job,
            )
        )
    return rows


def test_row_codec_roundtrip_is_bit_exact():
    rows = _awkward_rows()
    back = decode_rows(encode_rows(rows), job=7)
    assert back == rows
    for a, b in zip(rows, back):
        assert a.mean_duration == b.mean_duration  # exact, not approx
        assert a.t_slice_start == b.t_slice_start
        assert a.mean_cache_miss == b.mean_cache_miss
        assert a.job_id == b.job_id


def test_row_codec_preserves_order_and_empty():
    rows = [
        make_summary(r, 1, SensorType.COMPUTATION, "g", s, 1.0 + r + s)
        for r in (2, 0, 2, 1)
        for s in (3, 1)
    ]
    assert decode_rows(encode_rows(rows)) == rows
    assert decode_rows(encode_rows([])) == []


def test_decode_rejects_truncated_row_block():
    payload = encode_rows(_awkward_rows())
    with pytest.raises(WireError):
        decode_rows(payload[:-4])


def test_frame_roundtrip_and_peer_death():
    a, b = socket_pair()
    a.send(5, b"hello")
    a.send(6)  # empty payload
    assert b.recv() == (5, b"hello")
    assert b.recv() == (6, b"")
    a.close()
    with pytest.raises(PeerDied):
        b.recv()
    b.close()


def test_frame_reassembles_across_partial_reads():
    import threading

    a, b = socket_pair()
    big = bytes(range(256)) * 2048  # 512 KiB: several socket reads
    # Send from a thread: one frame larger than the kernel socket buffer
    # needs a concurrent reader to drain it.
    sender = threading.Thread(target=a.send, args=(9, big))
    sender.start()
    ftype, payload = b.recv()
    sender.join()
    assert (ftype, payload) == (9, big)
    a.close()
    b.close()


def test_oversized_frames_fail_loudly():
    a, b = socket_pair()
    with pytest.raises(WireError):
        a.send(1, b"x" * (MAX_FRAME_BYTES + 1))
    # A corrupt length prefix on the read side must also refuse.
    a.sock.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, 1, 0))
    with pytest.raises(WireError):
        b.recv()
    a.close()
    b.close()


def test_frames_counter_ticks_both_directions():
    class Tally:
        value = 0

        def inc(self, n: int = 1) -> None:
            self.value += n

    tally = Tally()
    a, b = socket_pair(frames=tally)
    a.send(1, b"x")
    b.send(2, b"y")
    assert a.recv() == (2, b"y")
    # a sent one and received one; b's side has no counter attached.
    assert tally.value == 2
    a.close()
    b.close()
