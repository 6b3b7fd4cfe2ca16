"""Hook interface between the simulator and observation tools.

The vSensor dynamic module, the mpiP-like profiler baseline and the
ITAC-like tracer baseline all observe execution through this interface —
the simulator is tool-agnostic, exactly as a real machine is.
"""

from __future__ import annotations

import numpy as np

from repro.sim.pmu import PmuSample


class SensorBatch:
    """One fused Tock: the same sensor's Tick..Tock record on every lane.

    The lockstep tier executes a Tock once for all ranks; this carries the
    rank axis to hooks that accept it instead of unrolling it into one
    ``on_sensor_record`` per lane.  Entry ``i`` of every vector belongs to
    lane ``i``, whose rank is ``ranks[i]``.
    """

    __slots__ = ("sensor_id", "ranks", "t_start", "t_end", "instructions",
                 "cache_miss_rate")

    def __init__(self, sensor_id: int, ranks: np.ndarray, t_start: np.ndarray,
                 t_end: np.ndarray, instructions: np.ndarray,
                 cache_miss_rate: np.ndarray) -> None:
        self.sensor_id = sensor_id
        self.ranks = ranks
        self.t_start = t_start
        self.t_end = t_end
        self.instructions = instructions
        self.cache_miss_rate = cache_miss_rate

    def unrolled(self) -> list[tuple]:
        """Per-lane ``on_sensor_record`` argument tuples, in lane order."""
        sid = self.sensor_id
        return [
            (rank, sid, t_start, t_end, PmuSample(instructions, miss))
            for rank, t_start, t_end, instructions, miss in zip(
                self.ranks.tolist(), self.t_start.tolist(), self.t_end.tolist(),
                self.instructions.tolist(), self.cache_miss_rate.tolist(),
            )
        ]


class RuntimeHooks:
    """Override the notifications a tool cares about.  Times are µs."""

    #: set True to additionally receive user-function enter/exit events
    #: (expensive; only full tracers want them)
    wants_function_events: bool = False

    #: set True to receive a fused lockstep Tock as one
    #: :meth:`on_sensor_batch` instead of one ``on_sensor_record`` per lane
    accepts_sensor_batches: bool = False

    def observes(self, name: str) -> bool:
        """False when notification ``name`` is still this class's no-op, so
        an engine that buffers events may drop it unbuffered."""
        return getattr(getattr(self, name), "__func__", None) is not getattr(
            RuntimeHooks, name
        )

    def on_func_enter(self, rank: int, name: str, t: float) -> None:  # pragma: no cover
        pass

    def on_func_exit(self, rank: int, name: str, t: float) -> None:  # pragma: no cover
        pass

    def on_program_start(self, n_ranks: int) -> None:  # pragma: no cover - default no-op
        pass

    def on_program_end(self, rank: int, t: float) -> None:  # pragma: no cover
        pass

    def on_sensor_record(
        self,
        rank: int,
        sensor_id: int,
        t_start: float,
        t_end: float,
        pmu: PmuSample,
    ) -> None:  # pragma: no cover
        """One Tick..Tock execution of an instrumented v-sensor."""

    def on_sensor_batch(self, batch: SensorBatch, defer) -> None:  # pragma: no cover
        """One fused Tock over all lanes (``accepts_sensor_batches`` only).

        Called when the Tock executes, before any lane's earlier buffered
        events have been delivered: advance per-rank state here, and hand
        everything visible outside a rank to ``defer(lane, fn, args)``,
        which runs ``fn(*args)`` at that lane's normal delivery point — the
        position the lane's ``on_sensor_record`` would have had.
        """

    def on_mpi_begin(self, rank: int, op: str, t: float) -> None:  # pragma: no cover
        pass

    def on_mpi_end(self, rank: int, op: str, t_begin: float, t_end: float, size: float) -> None:  # pragma: no cover
        pass

    def on_io(self, rank: int, op: str, t_begin: float, t_end: float, size: float) -> None:  # pragma: no cover
        pass


class NullHooks(RuntimeHooks):
    """No observation at all (original, uninstrumented runs)."""


class TeeHooks(RuntimeHooks):
    """Fan one event stream out to several tools (e.g. the vSensor runtime
    plus a raw-record collector for offline figure data)."""

    def __init__(self, *hooks: RuntimeHooks) -> None:
        self.hooks = [h for h in hooks if h is not None]
        self.wants_function_events = any(h.wants_function_events for h in self.hooks)
        self.accepts_sensor_batches = any(h.accepts_sensor_batches for h in self.hooks)

    def observes(self, name: str) -> bool:
        return any(h.observes(name) for h in self.hooks)

    def on_program_start(self, n_ranks: int) -> None:
        for h in self.hooks:
            h.on_program_start(n_ranks)

    def on_program_end(self, rank: int, t: float) -> None:
        for h in self.hooks:
            h.on_program_end(rank, t)

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        for h in self.hooks:
            h.on_sensor_record(rank, sensor_id, t_start, t_end, pmu)

    def on_sensor_batch(self, batch, defer) -> None:
        records = None
        for h in self.hooks:
            if h.accepts_sensor_batches:
                h.on_sensor_batch(batch, defer)
            elif h.observes("on_sensor_record"):
                # Members without batch support see their scalar stream.
                if records is None:
                    records = batch.unrolled()
                for lane, args in enumerate(records):
                    defer(lane, h.on_sensor_record, args)

    def on_mpi_begin(self, rank, op, t) -> None:
        for h in self.hooks:
            h.on_mpi_begin(rank, op, t)

    def on_mpi_end(self, rank, op, t_begin, t_end, size) -> None:
        for h in self.hooks:
            h.on_mpi_end(rank, op, t_begin, t_end, size)

    def on_io(self, rank, op, t_begin, t_end, size) -> None:
        for h in self.hooks:
            h.on_io(rank, op, t_begin, t_end, size)

    def on_func_enter(self, rank, name, t) -> None:
        for h in self.hooks:
            if h.wants_function_events:
                h.on_func_enter(rank, name, t)

    def on_func_exit(self, rank, name, t) -> None:
        for h in self.hooks:
            if h.wants_function_events:
                h.on_func_exit(rank, name, t)


class RawRecorder(RuntimeHooks):
    """Keeps every probe record — figure-data collection, not production."""

    def __init__(self, ranks: set[int] | None = None) -> None:
        #: restrict collection to these ranks (None = all)
        self.ranks = ranks
        self.records: list[tuple[int, int, float, float, float]] = []

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        if self.ranks is None or rank in self.ranks:
            self.records.append((rank, sensor_id, t_start, t_end, pmu.instructions))
