"""Per-rank virtual clock: converting work units to elapsed time.

Work accumulated by the interpreter is converted lazily (at probe / MPI
boundaries) by integrating the node's effective speed over time::

    cpu_speed * fault_cpu(t) * noise_jitter(t)
      blended with mem_perf * fault_mem(t) over the memory-bound fraction

Speed is piecewise constant on *pieces*: the jitter-slice grid
``k * slice_us`` cut at every fault window edge.  A piece runs at the speed
sampled at its start, except the piece a call starts inside, which runs at
the speed sampled at the call's start; periodic-interrupt loss is added
per call.  :class:`CapacityTable` holds, per run and per 512-slice chunk,
the piece starts and every node's piece speeds and running capacity
(``cumsum`` of speed x length).  :meth:`RankClock.advance_compute` charges
the first partial piece, finds the first piece whose capacity reaches what
is left, and divides once; ``VectorClocks`` does the same float operations
per lane on the same table, so the tiers agree to the bit by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sim.faults import Fault, cpu_factor_at, fault_boundaries, mem_factor_at
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import _JITTER_CHUNK, _SPIKE_CHUNK, NodeNoise

#: Chunks one ``advance_compute`` may cross: a configuration that cannot
#: charge its work within them (zero speed) is an error, not a short charge.
CHUNK_CAP = 20_000
#: Chunk tables a run holds at once; the earliest is dropped first.
_HELD_CHUNKS = 8


@dataclass(slots=True)
class _Chunk:
    """One chunk's piece ``starts`` (the last is the next chunk's first) and
    per node row ``speed``, ``cap`` and ``spiky``: a daemon-spike candidate
    millisecond touches the piece, so a time inside may see another speed."""

    starts: np.ndarray
    starts_list: list
    speed: np.ndarray
    cap: np.ndarray
    spiky: np.ndarray
    #: per row, what :meth:`CapacityTable.pieces` hands a scalar clock
    lists: dict = field(default_factory=dict)


class CapacityTable:
    """Work capacity of one run's nodes, tabulated chunk by chunk.

    Built over the run's clocks (one row per node); dropped with them.
    """

    def __init__(self, clocks) -> None:
        first = clocks[0]
        cfg = first.machine.noise
        self.slice_us = max(1.0, cfg.jitter_slice_us)
        # ``int(t / jitter_us)`` is the jitter slice noise reads at ``t``;
        # without jitter every time reads the same (none).
        self.jitter_us = cfg.jitter_slice_us if cfg.jitter_sigma > 0 else math.inf
        self.spike_rate = cfg.spike_rate_per_ms
        self.frac = first.machine.mem_fraction
        self.edges = np.array(fault_boundaries(first.faults), dtype=np.float64)
        by_node = {}
        for clock in clocks:
            by_node.setdefault(clock.node.node_id, clock)
        self.row_of = {node_id: row for row, node_id in enumerate(by_node)}
        owners = list(by_node.values())
        self.cpu_speed = np.array([c.node.cpu_speed for c in owners], dtype=np.float64)
        self.mem_perf = np.array([c.node.mem_perf for c in owners], dtype=np.float64)
        self.noises = [c.noise for c in owners]
        self.node_ids = list(by_node)
        self.faults = first.faults
        self._chunks: dict[int, _Chunk] = {}

    @classmethod
    def shared_by(cls, clocks) -> CapacityTable:
        """The one table of ``clocks`` (a run's ranks), installed in each."""
        table = clocks[0].table
        if table is None or any(clock.table is not table for clock in clocks):
            table = cls(clocks)
            for clock in clocks:
                clock.table = table
                clock._row = table.row_of[clock.node.node_id]
                clock._pieces = _NO_PIECES
        return table

    def _blend(self, rows, cpu_factor, mem_factor, mult) -> np.ndarray:
        """Speed of node ``rows`` given its fault factors and noise
        multiplier: the CPU/memory blend with its clamps, elementwise."""
        cpu = self.cpu_speed[rows] * cpu_factor * mult
        mem = self.mem_perf[rows] * mem_factor
        frac = self.frac
        speed = 1.0 / ((1.0 - frac) / np.maximum(cpu, 1e-9) + frac / np.maximum(cpu * mem, 1e-9))
        return np.maximum(speed, 1e-9)

    def speeds_at(self, rows: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Speed of each lane's node ``rows[j]`` at ``times[j]``."""
        nodes, at = [self.node_ids[row] for row in rows.tolist()], times.tolist()
        return self._blend(
            rows,
            np.array([cpu_factor_at(self.faults, n, t) for n, t in zip(nodes, at)]),
            np.array([mem_factor_at(self.faults, n, t) for n, t in zip(nodes, at)]),
            np.array([self.noises[row].speed_multiplier(t) for row, t in zip(rows.tolist(), at)]),
        )

    def chunks_of(self, t: np.ndarray) -> np.ndarray:
        """Index of the chunk holding each time: a quotient, corrected by
        comparing with the chunk's first start as the table computes it."""
        c = (t / (_JITTER_CHUNK * self.slice_us)).astype(np.int64)
        c -= t < c * _JITTER_CHUNK * self.slice_us
        c += t >= (c + 1) * _JITTER_CHUNK * self.slice_us
        return c

    def chunk(self, c: int) -> _Chunk:
        """Chunk ``c``'s pieces and every node's speed and capacity on them."""
        held = self._chunks.get(c)
        if held is not None:
            return held
        if len(self._chunks) >= _HELD_CHUNKS:
            del self._chunks[min(self._chunks)]
        grid = np.arange(c * _JITTER_CHUNK, (c + 1) * _JITTER_CHUNK + 1) * self.slice_us
        edges = self.edges[(grid[0] < self.edges) & (self.edges < grid[-1])]
        off_grid = edges[grid[np.searchsorted(grid, edges)] != edges]
        starts = np.sort(np.concatenate((grid, off_grid)))
        # Fault factors change only at edges: one evaluation per node and
        # stretch between them, spread over the stretch's pieces.
        cuts = [float(grid[0]), *edges.tolist()]
        stretch = np.searchsorted(edges, starts[:-1], side="right")
        factors = [
            np.array([[at(self.faults, n, t) for t in cuts] for n in self.node_ids])[:, stretch]
            for at in (cpu_factor_at, mem_factor_at)
        ]
        mult = np.stack([noise.speed_multipliers(starts[:-1]) for noise in self.noises])
        rows = np.arange(len(self.noises))[:, None]
        speed = self._blend(rows, *factors, mult)
        cap = np.zeros((rows.size, starts.size))
        np.cumsum(speed * np.diff(starts), axis=1, out=cap[:, 1:])
        if self.spike_rate > 0:
            # Candidates among the milliseconds from a piece's start to its
            # end, counted by prefix sums over the chunk's milliseconds.
            ms = (starts / 1000.0).astype(np.int64)
            s0, s1 = int(ms[0]) // _SPIKE_CHUNK, int(ms[-1]) // _SPIKE_CHUNK
            p = np.stack([np.concatenate([n._spike_chunk(s)[0] for s in range(s0, s1 + 1)])
                          for n in self.noises])
            m0 = s0 * _SPIKE_CHUNK
            seen = np.zeros((rows.size, p.shape[1] + 1), dtype=np.int64)
            np.cumsum(p < self.spike_rate, axis=1, out=seen[:, 1:])
            spiky = seen[:, ms[1:] - m0 + 1] > seen[:, ms[:-1] - m0]
        else:
            spiky = np.zeros(speed.shape, dtype=bool)
        held = self._chunks[c] = _Chunk(starts, starts.tolist(), speed, cap, spiky)
        return held

    def pieces(self, row: int, t: float) -> tuple:
        """(starts, cap, speed, spiky pieces) of ``row`` over the chunk
        holding ``t``, as lists and a set for the scalar kernel."""
        chunk = self.chunk(int(self.chunks_of(np.array([t]))[0]))
        held = chunk.lists.get(row)
        if held is None:
            spiky = set(np.flatnonzero(chunk.spiky[row]).tolist())
            held = chunk.lists[row] = (
                chunk.starts_list, chunk.cap[row].tolist(), chunk.speed[row].tolist(), spiky
            )
        return held


#: the pieces of no chunk: every time falls outside them
_NO_PIECES = ((math.inf, -math.inf), (), (), frozenset())


@dataclass(slots=True)
class RankClock:
    """Virtual clock of one rank."""

    rank: int
    node: NodeConfig
    noise: NodeNoise
    machine: MachineConfig
    faults: tuple[Fault, ...]
    now: float = 0.0
    #: the run's table (built for this clock alone on first use if unset)
    table: CapacityTable | None = field(default=None, repr=False, compare=False)
    _row: int = field(default=0, repr=False, compare=False)
    #: this row's pieces in the chunk last charged in
    _pieces: tuple = field(default=_NO_PIECES, repr=False, compare=False)

    def advance_compute(self, work_units: float) -> tuple[float, float]:
        """Advance by ``work_units`` of computation; return (start, end)."""
        start = t = self.now
        if work_units <= 0:
            return start, start
        table = self.table or CapacityTable.shared_by([self])
        jitter_us = table.jitter_us
        starts, cap, speed, spiky = self._pieces
        remaining = work_units
        for _ in range(CHUNK_CAP):
            if not starts[0] <= t < starts[-1]:
                starts, cap, speed, spiky = self._pieces = table.pieces(self._row, t)
            i = bisect_right(starts, t) - 1
            s = speed[i]
            if i in spiky or int(t / jitter_us) != int(starts[i] / jitter_us):
                # the piece's tabled speed may not be the speed at t
                s = float(table.speeds_at(np.array([self._row]), np.array([t]))[0])
            end = starts[i + 1]
            need = remaining / s
            if need <= end - t:
                t += need
                break
            target = cap[i + 1] + (remaining - s * (end - t))
            q = bisect_left(cap, target, i + 2)
            if q < len(cap):
                t = starts[q - 1] + (target - cap[q - 1]) / speed[q - 1]
                break
            remaining = target - cap[-1]
            t = starts[-1]
        else:
            raise SimulationError(f"virtual clock made no headway: {CHUNK_CAP} "
                                  f"chunks left {remaining!r} work units uncharged")
        # Periodic interrupt loss stretches the window.
        t += self.noise.interrupt_loss(start, t)
        self.now = t
        return start, t

    def advance_wall(self, duration_us: float) -> tuple[float, float]:
        """Advance by a fixed wall duration (IO waits, comm completions)."""
        start = self.now
        self.now = start + max(0.0, duration_us)
        return start, self.now

    def wait_until(self, t: float) -> None:
        if t > self.now:
            self.now = t
