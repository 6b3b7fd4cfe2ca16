"""Reference spool writer: the per-row encoder the production writer must
match byte for byte.

One global ``_group_code`` call and two ``struct`` packs (frame header,
then record) per row, and one ``open(..., "ab")`` per batch — the
straightforward statement of the wire format that
:meth:`repro.runtime.transport.FileSpool.append_batch` encodes with held
descriptors and one pack per row.  The format is restated here rather
than imported, so a change to the production structs shows up as a byte
difference.
"""

from __future__ import annotations

import os
import struct

from repro.errors import ReproError
from repro.runtime.records import SENSOR_TYPE_CODE

#: sensor id (u32), slice index (u32), mean duration (f32), count (u16),
#: mean cache miss scaled to u16, two pad bytes
_RECORD = struct.Struct("<IIfHHxx")
_FRAME_HEADER = struct.Struct("<IHH")  # rank (u32), kind (u16), tag (u16)
_GROUP_LEN = struct.Struct("<H")
_GROUP_FRAME = 0xFFFF


class OracleSpool:
    """Writes the same ``rank%05d.spool`` files as ``FileSpool``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._groups: dict[str, int] = {"": 0}
        self._written_codes: dict[int, set[int]] = {}

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

    def append_batch(self, rank: int, summaries) -> None:
        written = self._written_codes.setdefault(rank, {0})
        defined: set[int] = set()
        chunks: list[bytes] = []
        for s in summaries:
            code = self._group_code(s.group)
            if code not in written and code not in defined:
                defined.add(code)
                encoded = s.group.encode("utf-8")
                chunks.append(_FRAME_HEADER.pack(rank, _GROUP_FRAME, code))
                chunks.append(_GROUP_LEN.pack(len(encoded)))
                chunks.append(encoded)
            tag = (SENSOR_TYPE_CODE[s.sensor_type] << 12) | (code & 0x0FFF)
            chunks.append(_FRAME_HEADER.pack(rank, 1, tag))
            chunks.append(
                _RECORD.pack(
                    s.sensor_id & 0xFFFFFFFF,
                    s.slice_index & 0xFFFFFFFF,
                    float(s.mean_duration),
                    min(s.count, 0xFFFF),
                    int(min(max(s.mean_cache_miss, 0.0), 1.0) * 0xFFFF),
                )
            )
        if chunks:
            with open(self._path(rank), "ab") as fh:
                fh.write(b"".join(chunks))
            written |= defined
