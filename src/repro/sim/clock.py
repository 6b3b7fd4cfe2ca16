"""Per-rank virtual clock: converting work units to elapsed time.

Work accumulated by the interpreter is converted lazily (at probe / MPI
boundaries) by integrating the node's effective speed over time.  The
effective speed at instant ``t`` is::

    cpu_speed * noise_jitter(t) * fault_cpu(t)
      blended with mem_perf * fault_mem(t) over the memory-bound fraction

Integration proceeds slice by slice (noise jitter slices, fault window
edges) so episodic faults show up exactly where they are injected, and
periodic-interrupt loss is added per window.

On a clock no fault touches, the speed of a step is a function of its
jitter slice alone unless a daemon spike may be live in that millisecond,
so such steps read it from a per-jitter-chunk table — the blend expression
applied elementwise to the chunk's cached draws, hence the same float per
slice — and every other step evaluates the blend itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sim.faults import Fault, cpu_factor_at, fault_boundaries, mem_factor_at
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NodeNoise

#: Slice steps one ``advance_compute`` may take: a configuration that cannot
#: charge its work within them (zero speed) is an error, not a short charge.
STEP_CAP = 10_000_000


def blend_speeds(cpu, mem, frac: float):
    """Work units per microsecond of a job split between a CPU-bound and a
    memory-bound fraction: ``work * ((1 - frac)/cpu + frac/(cpu * mem))`` is
    its time.  Elementwise over arrays; :meth:`RankClock.advance_compute`
    inlines the same expression on floats."""
    return 1.0 / (
        (1.0 - frac) / np.maximum(cpu, 1e-9) + frac / np.maximum(cpu * mem, 1e-9)
    )


@dataclass(slots=True)
class RankClock:
    """Virtual clock of one rank."""

    rank: int
    node: NodeConfig
    noise: NodeNoise
    machine: MachineConfig
    faults: tuple[Fault, ...]
    now: float = 0.0
    #: fault window edges, computed once (the fault set is fixed per run)
    _edges: tuple[float, ...] | None = field(default=None, repr=False)
    #: (jitter chunk, speed per slice) and (spike chunk, spike-candidate flag
    #: per millisecond) of the chunks last stepped in, as plain lists
    _speeds: tuple = field(default=(-1, ()), repr=False, compare=False)
    _spiky: tuple = field(default=(-1, ()), repr=False, compare=False)

    def _chunk_speeds(self, chunk: int) -> tuple:
        """Fault-free, spike-free speed of each slice of a jitter chunk: the
        loop's blend, elementwise (``cpu_speed * (1.0 * jitter)``)."""
        cpu = self.node.cpu_speed * self.noise._jitter_chunk(chunk)
        speeds = blend_speeds(cpu, self.node.mem_perf, self.machine.mem_fraction)
        self._speeds = chunk, speeds.tolist()
        return self._speeds

    def _chunk_spiky(self, chunk: int) -> tuple:
        """Which milliseconds of a spike chunk drew a daemon spike."""
        rate = self.machine.noise.spike_rate_per_ms
        self._spiky = chunk, (self.noise._spike_chunk(chunk)[0] < rate).tolist()
        return self._spiky

    def advance_compute(self, work_units: float) -> tuple[float, float]:
        """Advance by ``work_units`` of computation; return (start, end)."""
        start = self.now
        if work_units <= 0:
            return start, start
        t = self.now
        remaining = work_units
        slice_us = max(1.0, self.machine.noise.jitter_slice_us)
        edges = self._edges
        if edges is None:
            edges = self._edges = tuple(fault_boundaries(self.faults))
        n_edges = len(edges)
        edge_i = bisect_right(edges, t) if n_edges else 0
        # Hot loop: one step per jitter slice.  Lookups are hoisted and the
        # speed blend inlined; with no faults the factor calls are skipped
        # (they would return exactly 1.0) and a step outside every spike
        # candidate reads its speed from the jitter chunk's table.
        faults = self.faults
        node_id = self.node.node_id
        cpu_speed = self.node.cpu_speed
        mem_perf = self.node.mem_perf
        frac = self.machine.mem_fraction
        speed_multiplier = self.noise.speed_multiplier
        cfg = self.machine.noise
        tabled = not faults and cfg.jitter_sigma > 0 and cfg.jitter_slice_us == slice_us
        jitter_chunk, speeds = self._speeds
        spike_chunk, spiky = self._spiky
        for _ in range(STEP_CAP):
            k = int(t / slice_us)
            speed = None
            if tabled:
                # chunk = k >> 9 / ms >> 8, as in NodeNoise.speed_multiplier
                ms = int(t / 1000.0)
                if ms >> 8 != spike_chunk:
                    spike_chunk, spiky = self._chunk_spiky(ms >> 8)
                if not spiky[ms & 255]:
                    if k >> 9 != jitter_chunk:
                        jitter_chunk, speeds = self._chunk_speeds(k >> 9)
                    speed = speeds[k & 511]
            if speed is None:
                if faults:
                    cpu = cpu_speed * cpu_factor_at(faults, node_id, t)
                    cpu *= speed_multiplier(t)
                    mem = mem_perf * mem_factor_at(faults, node_id, t)
                else:
                    cpu = cpu_speed * speed_multiplier(t)
                    mem = mem_perf
                denom = (1.0 - frac) / max(cpu, 1e-9) + frac / max(cpu * mem, 1e-9)
                speed = 1.0 / denom
            # Next boundary where speed may change.  ``(k * S) / S`` can
            # round below ``k``, which would name ``t`` itself: a boundary
            # that is not after ``t`` moves to the next grid point.
            boundary = (k + 1) * slice_us
            if boundary <= t:
                boundary = (k + 2) * slice_us
            while edge_i < n_edges and edges[edge_i] <= t:
                edge_i += 1
            if edge_i < n_edges and edges[edge_i] < boundary:
                boundary = edges[edge_i]
            dt_max = boundary - t
            dt_needed = remaining / max(speed, 1e-9)
            if dt_needed <= dt_max:
                t += dt_needed
                remaining = 0.0
                break
            remaining -= speed * dt_max
            t = boundary
        else:
            raise SimulationError(
                f"virtual clock made no headway: {STEP_CAP} slice steps "
                f"left {remaining!r} work units uncharged"
            )
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
