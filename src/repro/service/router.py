"""Consistent-hash routing of summary streams onto shard workers.

The sharded analysis service partitions work at ``(job, rank, sensor)``
granularity: every summary of one sensor on one rank of one job lands on
the same shard, so shard-local identity dedup is equivalent to global
dedup and per-(sensor, group) history state never splits across shards.

Placement uses a classic consistent-hash ring with virtual nodes.  Hashes
come from :func:`hashlib.blake2b`, never Python's builtin ``hash`` —
that one is salted per process, and routing must be a pure function of
the key so tests, goldens and multi-process deployments agree on where
every stream lives.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b

from repro.errors import ReproError
from repro.runtime.records import SliceSummary


def _point(data: bytes) -> int:
    """64-bit ring position of a byte string (stable across processes)."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class ShardRouter:
    """Immutable consistent-hash ring over ``n_shards`` workers."""

    def __init__(self, n_shards: int, vnodes: int = 64) -> None:
        if n_shards < 1:
            raise ReproError(f"need at least one shard (got {n_shards})")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for v in range(vnodes):
                points.append((_point(b"shard:%d:%d" % (shard, v)), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_of(self, job: int, rank: int, sensor_id: int) -> int:
        """Owning shard of one (job, rank, sensor) stream."""
        key = _point(b"%d:%d:%d" % (job, rank, sensor_id))
        idx = bisect.bisect_right(self._points, key)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def split(
        self, job: int, rank: int, summaries: list[SliceSummary]
    ) -> dict[int, list[SliceSummary]]:
        """Partition one rank batch into per-shard sub-batches.

        Sub-batches preserve the original row order, so the sequenced
        front -> shard hop replays each stream in send order.
        """
        out: dict[int, list[SliceSummary]] = {}
        cache: dict[int, int] = {}
        for s in summaries:
            shard = cache.get(s.sensor_id)
            if shard is None:
                shard = cache[s.sensor_id] = self.shard_of(job, rank, s.sensor_id)
            out.setdefault(shard, []).append(s)
        return out
