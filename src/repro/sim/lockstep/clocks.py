"""Rank-axis vectorized virtual clocks for the lockstep tier.

:class:`VectorClocks` holds every fused lane's ``now`` in one float64 array
and integrates work into time a **block** at a time: a ``(lanes, J)`` grid
whose column ``j`` is the ``j``-th slice step each lane's
:meth:`repro.sim.clock.RankClock.advance_compute` loop would take.  The
result is bit-identical to that loop, lane by lane, because

* a step's start is known before the step before it is evaluated — after
  the first, every step starts on the jitter-slice grid at ``k * slice_us``,
  an ``int * float`` product in both tiers — so the whole grid of starts
  ``ta`` and boundaries can be laid out up front;
* speed is a pure function of ``(lane, ta)``: noise draws come from the same
  cached chunk arrays as the scalar path (:class:`repro.sim.noise.NoiseBank`),
  fault factors multiply in fault-tuple order, and the blend is the scalar
  expression with the same clamps, evaluated elementwise — IEEE multiply,
  divide and add give one answer per operand pair however many elements
  ride along;
* the only value carried from step to step, the work remaining, comes from
  ``np.subtract.accumulate`` along the slice axis, which subtracts
  sequentially — ``(r - a0) - a1 ...``, the scalar loop's own order — and is
  not a re-associated sum;
* a lane ends at its *first* column with ``dt_needed <= dt_max``; what the
  grid holds beyond that column is never read.

A fault edge inside a block clips the boundary of the step it falls in,
exactly as in the scalar loop, and that column becomes the block's last
(``J = 1`` when the edge is in the first slice): the steps after it no
longer start where the grid put them, so the next block lays them out
again from the edge.  ``J`` is sized from the work at hand; lanes that
outlast a block carry ``remaining`` and ``t`` into the next one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.clock import STEP_CAP, blend_speeds
from repro.sim.faults import BadNode, CpuContention, SlowMemoryNode, fault_boundaries
from repro.sim.noise import NoiseBank

#: Most slice steps one block lays out per lane.
_BLOCK_SLICES = 256
#: Most grid cells (lanes x slices) per block; bounds the temporaries.
_BLOCK_CELLS = 1 << 15


class VectorClocks:
    """Virtual clocks of all fused lanes, advanced in lockstep."""

    def __init__(self, interps) -> None:
        # ``interps`` are the per-rank BytecodeInterp backing stores, in
        # batch (rank) order.  Their RankClock objects stay authoritative
        # while a lane is drained; absorb() / export() move a lane's time
        # across the fused/drained boundary.
        self.interps = interps
        first = interps[0]
        self.machine = first.machine
        self.faults = first.faults
        self.n = len(interps)
        self.now = np.array([i.clock.now for i in interps], dtype=np.float64)
        self.node_ids = np.array(
            [i.clock.node.node_id for i in interps], dtype=np.int64
        )
        self.cpu_speed = np.array(
            [i.clock.node.cpu_speed for i in interps], dtype=np.float64
        )
        self.mem_perf = np.array(
            [i.clock.node.mem_perf for i in interps], dtype=np.float64
        )
        self.frac = self.machine.mem_fraction
        self.slice_us = max(1.0, self.machine.noise.jitter_slice_us)
        self.edges = np.array(fault_boundaries(self.faults), dtype=np.float64)
        # Work units per slice at a lane's undisturbed speed: sizes a block.
        self._slice_work = self.slice_us * blend_speeds(
            self.cpu_speed, self.mem_perf, self.frac
        )
        # One NodeNoise per node serves all of that node's lanes.
        group_of = np.empty(self.n, dtype=np.int64)
        seen: dict[int, int] = {}
        noises = []
        for pos, interp in enumerate(interps):
            nid = interp.clock.node.node_id
            g = seen.get(nid)
            if g is None:
                g = seen[nid] = len(noises)
                noises.append(interp.clock.noise)
            group_of[pos] = g
        self._group_of = group_of
        self._noise = NoiseBank(noises)
        # Each fault's lane membership, once: (member, t0, t1, factor) in
        # fault-tuple order, mirroring faults.cpu_factor_at / mem_factor_at.
        self._cpu_faults: list[tuple] = []
        self._mem_faults: list[tuple] = []
        for fault in self.faults:
            if isinstance(fault, CpuContention):
                member = np.isin(self.node_ids, fault.node_ids)
            elif isinstance(fault, (BadNode, SlowMemoryNode)):
                member = self.node_ids == fault.node_id
            else:
                continue
            if not member.any():
                continue
            if not isinstance(fault, SlowMemoryNode):
                self._cpu_faults.append((member, fault.t0, fault.t1, fault.cpu_factor))
            self._mem_faults.append((member, fault.t0, fault.t1, fault.mem_factor))
        #: NumPy passes made, and the lane-slice steps they covered (what the
        #: per-rank loops would have taken): ``sim.lockstep.clock_*`` counters
        self.blocks = 0
        self.steps = 0

    @staticmethod
    def _fault_factors(windows, lanes: np.ndarray, ta: np.ndarray):
        # One multiplicative pass per fault, so per-cell products match the
        # scalar helper bit for bit (``f * 1.0`` outside a window is ``f``).
        f = 1.0
        for member, t0, t1, factor in windows:
            inside = member[lanes][:, None] & (t0 <= ta) & (ta < t1)
            f = f * np.where(inside, factor, 1.0)
        return f

    # -- the block integrator -----------------------------------------------

    def advance_compute(self, work: np.ndarray) -> None:
        """Advance each lane by ``work[lane]`` compute units (0 = no-op)."""
        idx = np.nonzero(work > 0)[0]
        if idx.size == 0:
            return
        start = self.now[idx]
        t = start.copy()
        remaining = work[idx].astype(np.float64)
        slice_us = self.slice_us
        frac = self.frac
        edges = self.edges
        n_edges = len(edges)
        steps_left = STEP_CAP
        live = np.arange(idx.size)
        while live.size:
            left = remaining[live]
            if steps_left <= 0:
                raise SimulationError(
                    f"virtual clock made no headway: {STEP_CAP} slice steps "
                    f"left {float(left.max())!r} work units uncharged"
                )
            lanes = idx[live]
            tl = t[live]
            # Slices the slowest lane needs at full speed, plus slack for
            # jitter; a lane that noise or a fault slows further goes round.
            want = float((left / self._slice_work[lanes]).max()) * 1.25 + 2.0
            J = int(min(want, _BLOCK_SLICES, max(1, _BLOCK_CELLS // live.size)))
            steps_left -= J
            # Boundaries: the slice grid after each lane's start.  A start
            # already on (or, by rounding, past) its own "next" grid point
            # moves one further, as in RankClock.
            k = (tl / slice_us).astype(np.int64) + 1
            k += (k * slice_us <= tl)
            bound = (k[:, None] + np.arange(J)) * slice_us
            ta = np.empty_like(bound)
            ta[:, 0] = tl
            ta[:, 1:] = bound[:, :-1]
            if n_edges:
                ei = int(np.searchsorted(edges, tl.min(), side="right"))
                if ei < n_edges and edges[ei] < bound[:, -1].max():
                    # An edge falls inside the block: clip the step it cuts
                    # short and end the block with that column.
                    at = np.searchsorted(edges, ta, side="right")
                    nxt = edges[np.minimum(at, n_edges - 1)]
                    cut = (at < n_edges) & (nxt < bound)
                    if cut.any():
                        J = int(cut.any(axis=0).argmax()) + 1
                        bound = np.where(cut, nxt, bound)[:, :J]
                        ta = ta[:, :J]
            cpu = self.cpu_speed[lanes][:, None] * self._fault_factors(
                self._cpu_faults, lanes, ta
            )
            cpu = cpu * self._noise.speed_multipliers(
                self._group_of[lanes][:, None], ta
            )
            mem = self.mem_perf[lanes][:, None] * self._fault_factors(
                self._mem_faults, lanes, ta
            )
            speed = blend_speeds(cpu, mem, frac)
            dt_max = bound - ta
            # before[:, j]: work remaining as step j begins; [:, J] after it.
            before = np.subtract.accumulate(
                np.concatenate((left[:, None], speed * dt_max), axis=1), axis=1
            )
            dt_needed = before[:, :J] / np.maximum(speed, 1e-9)
            fits = dt_needed <= dt_max
            done = fits.any(axis=1)
            fin = np.nonzero(done)[0]
            col = fits[fin].argmax(axis=1)
            t[live[fin]] = ta[fin, col] + dt_needed[fin, col]
            live = live[~done]
            t[live] = bound[~done, J - 1]
            remaining[live] = before[~done, J]
            self.blocks += 1
            self.steps += int(col.sum()) + col.size + J * live.size
        # Periodic interrupt loss stretches each window; it depends only on
        # the machine-wide NoiseConfig, so any node's NodeNoise serves.
        t += self._noise.noises[0].interrupt_losses(start, t)
        self.now[idx] = t

    # -- wall-time helpers ---------------------------------------------------

    def advance_wall(self, duration: np.ndarray | float) -> np.ndarray:
        """Advance all lanes by per-lane wall durations; returns start copy."""
        start = self.now.copy()
        self.now = start + np.maximum(0.0, duration)
        return start

    def wait_until_pos(self, pos: int, t: float) -> None:
        if t > self.now[pos]:
            self.now[pos] = t

    # -- fused/drained boundary ----------------------------------------------

    def export(self, pos: int) -> None:
        """Hand lane ``pos``'s time to its scalar RankClock (drain)."""
        self.interps[pos].clock.now = float(self.now[pos])

    def absorb(self, pos: int) -> None:
        """Take lane ``pos``'s time back from its scalar RankClock (refuse)."""
        self.now[pos] = self.interps[pos].clock.now
