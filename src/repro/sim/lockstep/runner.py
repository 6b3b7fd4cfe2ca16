"""Batch orchestration for the lockstep tier: fuse, drain, re-fuse.

The :class:`LockstepRunner` owns one :class:`~repro.sim.lockstep.vm.FusedVM`
(while all lanes are fused) plus the per-rank ``BytecodeInterp`` backing
stores that carry clocks, PMUs and RNG streams across the fused/drained
boundary.  The rendezvous engine never sees any of this: each rank hands it
a :class:`_LockstepLane` facade whose ``run()`` generator speaks the exact
scalar protocol (yield :class:`MpiRequest`, receive completion time), so
``engine="lockstep"`` plugs into :meth:`Simulator._run_loop` unchanged
except for one call: the engine forwards each resolved rendezvous group to
:meth:`on_group` *before* resuming its members, which is what lets a fused
batch absorb completions for lanes the engine has not polled yet and what
lets fully-drained batches re-fuse at a whole-batch collective.

Invariant: either every lane is fused in ``self.vm``, or ``self.vm`` is
``None`` and every unfinished lane runs drained on its own interp.  There
is no partial fusion — a spill drains the whole batch (see DESIGN.md §9).
"""

from __future__ import annotations

from repro.sim.lockstep.clocks import VectorClocks
from repro.sim.lockstep.vm import FusedVM

#: Sentinel returned by :meth:`LockstepRunner.next_item` at end of program.
_DONE = object()

_FUSED = "fused"
_DRAINED = "drained"
_FINISHED = "finished"

#: Rendezvous ops that can never re-fuse a batch (pairwise, not whole-batch).
_P2P_OPS = frozenset(["send", "recv", "sendrecv"])

#: Notifications the fused VM buffers per lane.
_BUFFERED_HOOKS = (
    "on_func_enter", "on_func_exit", "on_program_end", "on_sensor_record",
    "on_mpi_begin", "on_mpi_end", "on_io",
)


def _adapter(runner: "LockstepRunner", lane: int):
    """Generator speaking the scalar rank protocol for one lane."""
    completion = None
    while True:
        item = runner.next_item(lane, completion)
        if item is _DONE:
            return
        completion = yield item


class _LockstepLane:
    """Engine-facing stand-in for one rank's interpreter."""

    def __init__(self, runner: "LockstepRunner", lane: int) -> None:
        self._runner = runner
        self._interp = runner.interps[lane]
        self._lane = lane

    def run(self):
        return _adapter(self._runner, self._lane)

    @property
    def rank(self) -> int:
        return self._interp.rank

    @property
    def clock(self):
        return self._interp.clock

    @property
    def total_work(self) -> float:
        return self._interp.total_work

    @property
    def sensor_record_count(self) -> int:
        return self._interp.sensor_record_count


class LockstepRunner:
    """Drives one fused batch over per-rank interpreter backing stores."""

    def __init__(self, interps, hooks, obs) -> None:
        self.interps = interps
        self.hooks = hooks
        self.obs = obs
        self.n = len(interps)
        self.pos_of = {interp.rank: pos for pos, interp in enumerate(interps)}
        self.clocks = VectorClocks(interps)
        #: bound notification per hook name, decided once: names the hooks
        #: object leaves at the RuntimeHooks no-op are absent and their
        #: events are dropped unbuffered (NullHooks leaves all of them)
        self.sinks = {
            name: getattr(hooks, name)
            for name in _BUFFERED_HOOKS
            if hooks.observes(name)
        }
        #: ``hooks.on_sensor_batch`` when the hooks take a fused Tock whole
        self.batch_sink = (
            hooks.on_sensor_batch if hooks.accepts_sensor_batches else None
        )
        self.bufs: list[list] = [[] for _ in range(self.n)]
        self.status = [_FUSED] * self.n
        self.queue = [None] * self.n          # MpiRequest awaiting pickup
        self.block_desc = [None] * self.n     # (op, peer) of last request
        self.states = [None] * self.n         # ScalarState while drained
        self.gens = [None] * self.n           # live drain generator
        self.await_mpi = [False] * self.n     # drained with undelivered MPI
        self.stats = {"fuse": 0, "diverge": 0, "drain": 0, "governor_drain": 0}
        self.diverged_ranks: set[int] = set()
        self._counters_flushed = False
        self.vm = FusedVM.initial(self)

    def lanes(self) -> list[_LockstepLane]:
        return [_LockstepLane(self, lane) for lane in range(self.n)]

    # -- hook buffering ------------------------------------------------------

    def emit(self, lane: int, name: str, args: tuple) -> None:
        """Buffer a hook event for ``lane`` (dropped when unobserved).

        Buffered events are flushed when the engine next polls the lane, so
        the caller-visible hook order is exactly the scalar engine's
        per-rank-segment order even though fused execution interleaves all
        lanes instruction by instruction.
        """
        sink = self.sinks.get(name)
        if sink is not None:
            self.bufs[lane].append((sink, args))

    def defer(self, lane: int, fn, args: tuple) -> None:
        """Queue ``fn(*args)`` at ``lane``'s next flush (batch hooks)."""
        self.bufs[lane].append((fn, args))

    def _flush(self, lane: int) -> None:
        buf = self.bufs[lane]
        if buf:
            for fn, args in buf:
                fn(*args)
            buf.clear()

    # -- engine protocol -----------------------------------------------------

    def next_item(self, lane: int, completion):
        """Produce the next engine item (MpiRequest or _DONE) for a lane."""
        if self.status[lane] == _FUSED:
            vm = self.vm
            if vm.state == "running" and self.queue[lane] is None:
                vm.run()
            req = self.queue[lane]
            if req is not None:
                self.queue[lane] = None
                self.block_desc[lane] = (req.op, req.peer)
                self._flush(lane)
                return req
            if vm.state == "blocked":
                # This lane's completion was delivered and the engine has
                # resumed it, but sibling lanes still wait: the batch cannot
                # move in lockstep. Drain everyone (rendezvous stall).
                vm.spill_blocked()
            # "done" and "spilled" updated self.status via on_done/on_spill.
        if self.status[lane] == _FINISHED:
            self._flush(lane)
            return _DONE
        self._flush(lane)
        return self._advance_drained(lane, completion)

    def _advance_drained(self, lane: int, completion):
        gen = self.gens[lane]
        try:
            if gen is None:
                # First advance since the spill: any pending completion was
                # already applied (by FusedVM.deliver or on_group), so the
                # engine's completion value is stale here — ignore it.
                gen = self.gens[lane] = self.interps[lane].resume(self.states[lane])
                req = next(gen)
            elif completion is not None:
                req = gen.send(completion)
            else:  # pragma: no cover - engine always resumes with a value
                req = next(gen)
        except StopIteration:
            self.status[lane] = _FINISHED
            self.gens[lane] = None
            return _DONE
        self.block_desc[lane] = (req.op, req.peer)
        return req

    def on_group(self, group) -> None:
        """Absorb a resolved rendezvous group *before* the engine resumes it.

        ``group`` is the engine's list of ``(rank, completion)`` pairs.
        """
        vm = self.vm
        if vm is not None:
            for rank, completion in group:
                vm.deliver(self.pos_of[rank], completion)
            return
        for rank, completion in group:
            lane = self.pos_of[rank]
            if self.gens[lane] is None and self.await_mpi[lane]:
                # Lane was drained mid-block: its request is already posted,
                # so apply the post-MPI effects the scalar core would run on
                # resume. The hook is buffered to preserve segment order.
                st = self.states[lane]
                interp = self.interps[lane]
                dst, spelled, t0, size = st.mpi
                interp.clock.wait_until(completion)
                self.emit(lane, "on_mpi_end",
                          (interp.rank, spelled, t0, interp.clock.now, size))
                st.regs[dst] = 0
                st.mpi = None
                self.await_mpi[lane] = False
            # Lanes with a live generator get their completion through the
            # engine's normal gen.send on next poll.
        self._maybe_refuse(group)

    # -- spill / finish callbacks (from FusedVM) -----------------------------

    def on_spill(self, states, blocked) -> None:
        n = self.n
        self.stats["drain"] += n
        for lane in range(n):
            self.status[lane] = _DRAINED
            self.states[lane] = states[lane]
            self.gens[lane] = None
            self.await_mpi[lane] = (
                blocked is not None and not blocked["delivered"][lane]
            )
        self.vm = None
        tracer = self.obs.tracer
        if tracer.enabled:
            t = max(float(x) for x in self.clocks.now)
            tracer.emit("sim.lockstep.drain", t, t, lanes=n)

    def on_done(self) -> None:
        for lane in range(self.n):
            self.status[lane] = _FINISHED
        self.vm = None

    def flush_counters(self) -> None:
        """Report cumulative stats to obs.metrics (idempotent, end of run)."""
        if self._counters_flushed:
            return
        self._counters_flushed = True
        metrics = self.obs.metrics
        metrics.counter("sim.lockstep.fuse").inc(self.stats["fuse"])
        metrics.counter("sim.lockstep.diverge").inc(self.stats["diverge"])
        metrics.counter("sim.lockstep.drain").inc(self.stats["drain"])
        metrics.counter("sim.lockstep.diverged").inc(len(self.diverged_ranks))
        # Emitted only when a governor actually forced drains, so runs
        # without a governor keep their golden counter sets unchanged.
        if self.stats["governor_drain"]:
            metrics.counter("sim.lockstep.governor_drains").inc(
                self.stats["governor_drain"]
            )

    def note_governor_drain(self) -> None:
        """A probe's control state diverged across lanes: the whole batch
        drains before any lane's governor decision is consumed."""
        self.stats["governor_drain"] += 1
        tracer = self.obs.tracer
        if tracer.enabled:
            t = max(float(x) for x in self.clocks.now)
            tracer.emit("sim.lockstep.governor_drain", t, t, lanes=self.n)

    def note_diverge(self, positions) -> None:
        self.stats["diverge"] += 1
        for pos in positions:
            self.diverged_ranks.add(self.interps[int(pos)].rank)
        tracer = self.obs.tracer
        if tracer.enabled:
            t = max(float(x) for x in self.clocks.now)
            tracer.emit("sim.lockstep.diverge", t, t, lanes=len(positions))

    # -- refusion ------------------------------------------------------------

    def _maybe_refuse(self, group) -> None:
        if len(group) != self.n:
            return
        descs = self.block_desc
        op0, peer0 = descs[0]
        if op0 in _P2P_OPS or peer0 != -1:
            return
        if any(d != (op0, -1) for d in descs[1:]):
            return
        if any(self.status[lane] != _DRAINED for lane in range(self.n)):
            return
        states = self.states
        if not self._structurally_fusable(states):
            return
        # Apply post-MPI effects for lanes still inside a live generator
        # (gen-None lanes were handled in on_group above), then retire the
        # generators. Effects are applied only AFTER the structural check:
        # if the check failed, those lanes must keep their generators, and
        # resuming them would re-apply the effects.
        completions = {rank: completion for rank, completion in group}
        for lane in range(self.n):
            gen = self.gens[lane]
            if gen is None:
                continue
            st = states[lane]
            interp = self.interps[lane]
            dst, spelled, t0, size = st.mpi
            interp.clock.wait_until(completions[interp.rank])
            self.emit(lane, "on_mpi_end",
                      (interp.rank, spelled, t0, interp.clock.now, size))
            st.regs[dst] = 0
            st.mpi = None
            gen.close()
            self.gens[lane] = None
        self.vm = FusedVM.from_states(self, states)
        for lane in range(self.n):
            self.status[lane] = _FUSED
            self.states[lane] = None
            self.await_mpi[lane] = False
        self.stats["fuse"] += 1
        tracer = self.obs.tracer
        if tracer.enabled:
            t = max(float(x) for x in self.clocks.now)
            tracer.emit("sim.lockstep.fuse", t, t, lanes=self.n)

    def _structurally_fusable(self, states) -> bool:
        t = states[0]
        for st in states:
            if (st is None or st.finished or st.fc is not t.fc
                    or st.code is not t.code or st.pc != t.pc
                    or st.trace != t.trace
                    or len(st.stack) != len(t.stack)):
                return False
        for d, e0 in enumerate(t.stack):
            for st in states:
                e = st.stack[d]
                # (code, regs, ret_pc, dst, fc, trace) — everything but the
                # register values must match for lane-merging to be sound.
                if (e[0] is not e0[0] or e[2] != e0[2] or e[3] != e0[3]
                        or e[4] is not e0[4] or e[5] != e0[5]):
                    return False
        keys = set(self.interps[0]._open_ticks)
        for interp in self.interps:
            if set(interp._open_ticks) != keys:
                return False
        return True
