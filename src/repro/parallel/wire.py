"""What is specific to this repo on the process fabric's wire.

The pool parent ↔ pool worker hop of :mod:`repro.parallel` rides
:mod:`multiprocessing.connection`, which already delivers whole
length-prefixed messages or a clean EOF on a dead peer; this module
adds only the message cap, the pickled-payload helpers and the exact
batch row codec.

Batch payloads reuse the zero-copy structured-dtype technique of the
:mod:`repro.runtime.transport` spool codec: rows travel as one
``numpy`` structured array preceded by an interned group-string table,
and the decoder reconstructs them with a single ``np.frombuffer`` view
over the payload.  Unlike the spool codec (whose ``f32`` durations
are fine for §6.4 volume accounting), the fabric carries every float at
full ``f64`` fidelity: the process boundary must be *bit-invisible* —
``decode_rows(encode_rows(rows))`` reproduces each
:class:`~repro.runtime.records.SliceSummary` exactly, which is what
lets recorded batches cross a process boundary and still merge into
bit-identical matrices.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.errors import ReproError
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns

#: hard ceiling on one pool message — an oversized task or result must
#: fail loudly instead of attempting a multi-GiB allocation
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

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
    """A malformed row payload or an oversized message on the fabric."""


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

    The group table interns each distinct group string once per payload
    (payloads are self-describing, so a replay into a freshly restarted
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


def decode_rows(data: bytes) -> list[SliceSummary]:
    """Decode one :func:`encode_rows` payload back into summaries.

    The row block is read with a single zero-copy ``np.frombuffer``
    view; per-rank runs are materialized through the same
    :class:`~repro.runtime.records.SummaryColumns` path the spool drain
    uses, so every field round-trips bit-exactly (all floats are f64 on
    the wire).  A payload cut at any byte is a :class:`WireError`.
    """
    try:
        (n_groups,) = _GROUP_COUNT.unpack_from(data, 0)
        pos = _GROUP_COUNT.size
        groups: dict[int, str] = {}
        for _ in range(n_groups):
            code, length = _GROUP_ENTRY.unpack_from(data, pos)
            pos += _GROUP_ENTRY.size
            groups[code] = data[pos : pos + length].decode("utf-8")
            pos += length
        (n_rows,) = _ROW_COUNT.unpack_from(data, pos)
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(
            f"truncated row payload: {len(data)} bytes end inside the group "
            "table or a count word"
        ) from exc
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
        )
        out.extend(columns.to_summaries())
        start = end
    return out
