"""Rank-axis vectorized virtual clocks for the lockstep tier.

:class:`VectorClocks` holds every fused lane's ``now`` in one float64 array
and advances the lanes on the run's :class:`~repro.sim.clock.CapacityTable`,
the table every rank's :class:`~repro.sim.clock.RankClock` reads, with the
scalar kernel's float operations applied elementwise.  Only the searches
differ — ``searchsorted`` over the shared piece starts, and a bisection
comparing each lane's target with its own node's capacity row — so a lane's
``now`` equals its scalar clock's to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.clock import CHUNK_CAP, CapacityTable


def _first_reaching(cap: np.ndarray, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per lane, the first column with ``cap[row, q] >= target``
    (``cap.shape[1]`` if none): ``bisect_left`` on the lane's own row, as
    a branch-free bisection that every lane runs in step."""
    base = np.zeros(rows.size, dtype=np.int64)
    n = cap.shape[1]
    while n > 1:
        half = n >> 1
        base += half * (cap[rows, base + half] < target)
        n -= half
    return base + (cap[rows, base] < target)


class VectorClocks:
    """Virtual clocks of all fused lanes, advanced in lockstep."""

    def __init__(self, interps) -> None:
        # ``interps`` are the per-rank BytecodeInterp backing stores, in
        # batch (rank) order.  Their RankClock objects stay authoritative
        # while a lane is drained; absorb() / export() move a lane's time
        # across the fused/drained boundary.
        self.interps = interps
        clocks = [interp.clock for interp in interps]
        self.table = CapacityTable.shared_by(clocks)
        self.rows = np.array([clock._row for clock in clocks], dtype=np.int64)
        self.now = np.array([clock.now for clock in clocks], dtype=np.float64)
        # Interrupt loss depends only on the machine-wide NoiseConfig.
        self._noise = clocks[0].noise

    def advance_compute(self, work: np.ndarray) -> None:
        """Advance each lane by ``work[lane]`` compute units (0 = no-op)."""
        idx = np.nonzero(work > 0)[0]
        if idx.size == 0:
            return
        table = self.table
        jitter_us = table.jitter_us
        start = self.now[idx]
        t = start.copy()
        left = work[idx].astype(np.float64)
        rows = self.rows[idx]
        chunk = table.chunks_of(t)
        first = chunk.copy()
        pending = np.ones(idx.size, dtype=bool)
        while pending.any():
            # One chunk per pass: the earliest any pending lane is in.
            live = np.flatnonzero(pending)
            c = int(chunk[live].min())
            here = live[chunk[live] == c]
            pending[here] = False
            ch = table.chunk(c)
            starts = ch.starts
            tl, r = t[here], rows[here]
            i = np.searchsorted(starts, tl, side="right") - 1
            s = ch.speed[r, i]
            odd = ch.spiky[r, i] | (
                (tl / jitter_us).astype(np.int64) != (starts[i] / jitter_us).astype(np.int64)
            )
            if odd.any():
                s[odd] = table.speeds_at(r[odd], tl[odd])
            end = starts[i + 1]
            need = left[here] / s
            fits = need <= end - tl
            t[here[fits]] = tl[fits] + need[fits]
            if fits.all():
                continue
            go = ~fits
            lanes, r, i, s, end, tl = here[go], r[go], i[go], s[go], end[go], tl[go]
            target = ch.cap[r, i + 1] + (left[lanes] - s * (end - tl))
            q = np.maximum(_first_reaching(ch.cap, r, target), i + 2)
            ends = q < ch.cap.shape[1]
            p, rp = q[ends] - 1, r[ends]
            t[lanes[ends]] = starts[p] + (target[ends] - ch.cap[rp, p]) / ch.speed[rp, p]
            if not ends.all():
                on = lanes[~ends]
                left[on] = target[~ends] - ch.cap[r[~ends], -1]
                t[on] = starts[-1]
                chunk[on] = c + 1
                pending[on] = True
                if (chunk[on] - first[on]).max() >= CHUNK_CAP:
                    raise SimulationError(f"virtual clock made no headway: {CHUNK_CAP} chunks "
                                          f"left {float(left[on].max())!r} work units uncharged")
        t += self._noise.interrupt_losses(start, t)
        self.now[idx] = t

    def wait_until_pos(self, pos: int, t: float) -> None:
        if t > self.now[pos]:
            self.now[pos] = t

    def export(self, pos: int) -> None:
        """Hand lane ``pos``'s time to its scalar RankClock (drain)."""
        self.interps[pos].clock.now = float(self.now[pos])

    def absorb(self, pos: int) -> None:
        """Take lane ``pos``'s time back from its scalar RankClock (refuse)."""
        self.now[pos] = self.interps[pos].clock.now
