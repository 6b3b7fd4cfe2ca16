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
from repro.runtime.records import SliceSummary, SummaryColumns

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
        ("sensor_id", "<u4"),
        ("sensor_type_code", "<u2"),
        ("group_code", "<u2"),
        ("slice_index", "<u8"),
        ("t_slice_start", "<f8"),
        ("mean_duration", "<f8"),
        ("count", "<u8"),
        ("mean_cache_miss", "<f8"),
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
    cols = SummaryColumns.from_rows(rows)
    groups = cols.group_table
    if len(groups) > 0x10000:
        raise WireError("row batch uses more than 65536 distinct groups")
    array = np.empty(len(cols), dtype=ROW_DTYPE)
    for name in ROW_DTYPE.names:  # the record's column names
        array[name] = getattr(cols, name)
    chunks = [_GROUP_COUNT.pack(len(groups))]
    for code, group in groups.items():
        encoded = group.encode("utf-8")
        chunks.append(_GROUP_ENTRY.pack(code, len(encoded)))
        chunks.append(encoded)
    chunks.append(_ROW_COUNT.pack(len(cols)))
    chunks.append(array.tobytes())
    return b"".join(chunks)


def decode_rows(data: bytes) -> list[SliceSummary]:
    """Decode one :func:`encode_rows` payload back into summaries.

    The row block is read with a single zero-copy ``np.frombuffer``
    view and materialized through the same
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
    columns = {name: array[name] for name in ROW_DTYPE.names}
    return SummaryColumns(group_table=groups, **columns).to_summaries()
