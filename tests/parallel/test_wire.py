"""Fabric wire: the exact row codec and the message cap.

The codec contract is *bit-exactness*: ``decode_rows(encode_rows(rows))``
must reproduce every :class:`~repro.runtime.records.SliceSummary` field
including the last float bit — that is what makes the process boundary
invisible to the merged matrices — and a payload cut at any byte is a
typed error.  The pool hop itself is :mod:`multiprocessing.connection`;
what is checked of it here is that the cap stays loud on both sides.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ReproError
from repro.obs import Obs
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool
from repro.parallel.wire import WireError, decode_rows, encode_rows
from repro.runtime.records import SliceSummary
from repro.sensors.model import SensorType
from tests.service.util import make_summary


def _awkward_rows() -> list[SliceSummary]:
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
            )
        )
    return rows


def test_row_codec_roundtrip_is_bit_exact():
    rows = _awkward_rows()
    back = decode_rows(encode_rows(rows))
    assert back == rows
    for a, b in zip(rows, back):
        assert a.mean_duration == b.mean_duration  # exact, not approx
        assert a.t_slice_start == b.t_slice_start
        assert a.mean_cache_miss == b.mean_cache_miss


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


def test_payload_cut_at_every_offset_is_a_wire_error():
    """Group table, count words or row block: no cut escapes untyped."""
    rows = [
        make_summary(0, 1, SensorType.COMPUTATION, "grp-é", 3, 1.5),
        make_summary(1, 2, SensorType.NETWORK, "", 4, 2.5),
    ]
    payload = encode_rows(rows)
    assert decode_rows(payload) == rows
    for cut in range(len(payload)):
        with pytest.raises(WireError):
            decode_rows(payload[:cut])


def _blob(n: int) -> bytes:
    return b"x" * n


def test_oversized_frames_fail_loudly(monkeypatch):
    """Over the cap is one typed error naming the cap — for a task, for a
    result (reported by the worker, which stays up: no restart-and-replay
    loop) and for a length prefix the parent's own cap refuses."""
    obs = Obs.create()
    monkeypatch.setattr(pool_module, "MAX_MESSAGE_BYTES", 4096)
    with WorkerPool(1, _blob, obs=obs) as pool:  # forked with the cap at 4096
        with pytest.raises(WireError, match="over the cap of 4096"):
            pool.run([_blob(5000)])
        with pytest.raises(ReproError, match="WireError.*over the cap of 4096"):
            pool.run([5000])
        assert pool.run([10]) == [_blob(10)]
        assert obs.metrics.counter("parallel.worker_restart").value == 0
        monkeypatch.setattr(pool_module, "MAX_MESSAGE_BYTES", 1024)  # parent only
        with pytest.raises(WireError, match="cap is 1024 bytes"):
            pool.run([2000])
