"""The fused SIMD-over-ranks VM: one fetch, all ranks.

Value representation
--------------------
A register/global slot holds either a **uniform** value (a plain Python
scalar, string, or list shared by every lane) or a **varying** value: a
``(n_ranks,)`` object-dtype ndarray with one Python value per lane.  Object
dtype means NumPy applies the *Python* operators element-wise, so per-lane
arithmetic is exactly the scalar tier's (arbitrary-precision ints, Python
float semantics) — no dtype analysis, no overflow edge cases.  Arrays in
the mini language stay Python lists (the uniform container); an element
that diverges becomes a varying vector *inside* the list.  Vectors are
copy-on-write: masked stores build a new array, so aliased references
(MOVE copies references, like the scalar tier) never see phantom writes.

Work counters are **hybrid**: uniform integer half-unit charges accumulate
in plain Python ints (``pend_u``/``tot_u``) and masked charges in int64
lane vectors — exact, because integer addition is associative.  The float
residual streams (``pend_frac``/``tot_frac``) are pure per-lane vectors
updated in program order; splitting them would change rounding.

Control flow
------------
A varying conditional with compiler reconvergence metadata (``FuncCode.cf``)
pushes a mask frame and execution continues under a lane mask; lanes park
at the merge point (if) or loop exit and are restored when the active set
arrives there.  Anything that cannot run under a partial mask — MPI,
probes, IO, wall-clock reads, extern calls, divergent returns, indirect
calls, unstructured jumps — **spills**: every lane is materialized into a
:class:`~repro.sim.bytecode.dispatch.ScalarState` and drained on its own
:class:`BytecodeInterp` (sharing clock/PMU/RNG objects with the batch the
whole time), to be re-fused by the runner at the next full-width
collective.  See DESIGN.md §9 for the full lifecycle.

Dispatch
--------
This file holds machinery only — mask frames, spill/re-fuse, MPI
block/deliver, probes, IO and the per-opcode handler methods the table
names.  Neither interpreter loop is written here: ``_run_full`` (every
lane active) and ``_run_masked`` (under a lane mask) are rendered at
import time from :data:`~repro.sim.bytecode.dispatch.OP_TABLE`, the same
table the scalar core is rendered from (see "loop rendering" at the bottom
of this file).  The loops keep ``pc``, the uniform work counters and the
mask in locals and write them back before every handler call; the frame
state a call or return replaces (``code``/``regs``/``fc``/``trace``/
``stack``) lives on ``self`` and is re-read after one.  A handler returns
true when the loop must stop (drained, blocked, finished, or — at full
width — diverged).
"""

from __future__ import annotations

import ast
import re
from itertools import repeat

import numpy as np

from repro.errors import InterpError
from repro.sim.bytecode import ops
from repro.sim.bytecode.dispatch import (
    NEEDS_FULL_BATCH,
    OP_TABLE,
    UNDEF,
    ScalarState,
)
from repro.sim.faults import io_factor_at
from repro.sim.hooks import SensorBatch
from repro.sim.interp import MpiRequest

_ND = np.ndarray


def _obj_vec(values: list) -> np.ndarray:
    """Object vector from per-lane values (which may themselves be lists)."""
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr


def _broadcast(value, n: int) -> np.ndarray:
    """Uniform value -> varying vector (every lane the same object)."""
    arr = np.empty(n, dtype=object)
    if type(value) is list:
        for i in range(n):
            arr[i] = value
    else:
        arr[:] = value
    return arr


def _lane_get(value, pos: int):
    """Extract lane ``pos``'s scalar view of a Value (lists are cloned)."""
    if type(value) is _ND:
        return value[pos]
    if type(value) is list:
        return [_lane_get(e, pos) for e in value]
    return value


def _merge_lanes(values: list, n: int):
    """Per-lane scalars -> uniform value if all equal, else a vector."""
    first = values[0]
    tf = type(first)
    if tf is list:
        if all(type(v) is list and len(v) == len(first) for v in values):
            return [_merge_lanes([v[j] for v in values], n) for j in range(len(first))]
        return _obj_vec(values)
    for v in values[1:]:
        if v is first:
            continue
        if type(v) is not tf:
            return _obj_vec(values)
        try:
            if v != first:
                return _obj_vec(values)
        except (TypeError, ValueError):  # pragma: no cover - exotic values
            return _obj_vec(values)
    return first


def _compact(value, M):
    """A Value restricted to the active lanes (``M=None``: unchanged)."""
    return value[M] if M is not None and type(value) is _ND else value


def _each(value):
    """Per-lane iterator over a (compact) Value."""
    return value if type(value) is _ND else repeat(value)


def _masked(old, res, M) -> np.ndarray:
    """Copy-on-write masked store: ``old`` with lanes ``M`` replaced.

    ``res`` is uniform or holds one value per *active* lane.
    """
    new = old.copy() if type(old) is _ND else _broadcast(old, len(M))
    if type(res) is list:
        for i in np.nonzero(M)[0]:
            new[i] = res
    else:
        new[M] = res
    return new


class _MaskFrame:
    """One level of structured divergence (an ``if`` or a loop)."""

    __slots__ = ("kind", "code", "fc", "depth", "start", "merge", "head",
                 "entry", "pending", "ppc")

    def __init__(self, kind, code, fc, depth, start, merge, head, entry,
                 pending, ppc):
        self.kind = kind        # "if" | "loop"
        self.code = code        # code object the frame belongs to
        self.fc = fc
        self.depth = depth      # len(call stack) at push
        self.start = start      # pc of the conditional jump
        self.merge = merge      # reconvergence pc
        self.head = head        # loop header pc (-1 for ifs)
        self.entry = entry      # lanes active when the frame was pushed
        self.pending = pending  # if: untaken-side lanes awaiting execution
        self.ppc = ppc          # if: pc of the untaken side


class FusedVM:
    """Vectorized execution of one batch covering every rank."""

    def __init__(self, runner):
        self.runner = runner
        self.interps = runner.interps
        self.clocks = runner.clocks
        self.n = len(self.interps)
        first = self.interps[0]
        self.program = first.program
        self.funcs = self.program.funcs
        self.func_index = self.program.func_index
        self.machine = first.machine
        self.network = first.network
        self.faults = first.faults
        #: governor control table shared by every lane (None = no governor)
        self.control = first.probe_control
        self.n_ranks = first.n_ranks
        self.nmod = max(1, self.n_ranks)
        # The per-lane names of the scalar core, as Values (see _LANE_ENV).
        self.ranks_vec = _obj_vec([i.rank for i in self.interps])
        self.rngs = _obj_vec([i._rng for i in self.interps])
        node_ids = [i.clock.node.node_id for i in self.interps]
        self.node_val = (
            node_ids[0] if len(set(node_ids)) == 1 else _obj_vec(node_ids)
        )
        self.rank_ids = np.array([i.rank for i in self.interps], dtype=np.int64)
        self.pmu_draws = [i.pmu.draw for i in self.interps]
        n = self.n
        self.pend_u = 0
        self.tot_u = 0
        self.pend_v = np.zeros(n, dtype=np.int64)
        self.tot_v = np.zeros(n, dtype=np.int64)
        self.pend_frac = np.zeros(n)
        self.tot_frac = np.zeros(n)
        self.counts = np.zeros(n, dtype=np.int64)
        self.open_ticks: dict = {}
        self.frames: list[_MaskFrame] = []
        self.M = None
        self.stack: list = []
        self.block = None
        self.state = "running"

    # -- construction --------------------------------------------------------

    @classmethod
    def initial(cls, runner):
        vm = cls(runner)
        probe = vm.interps[0]
        entry_idx = vm.program.func_index.get(probe.entry)
        if entry_idx is None:
            raise InterpError(f"no entry function {probe.entry!r}")
        # Global initializer expressions charge work; every rank would
        # charge identically, so run them once and move the charges onto
        # the uniform counters.
        vm.glist = probe._init_globals_list()
        vm.pend_u = probe._pending_half
        vm.tot_u = probe._total_half
        vm.pend_frac[:] = probe._pending_frac
        vm.tot_frac[:] = probe._total_frac
        probe._pending_half = probe._total_half = 0
        probe._pending_frac = probe._total_frac = 0.0
        fc = vm.funcs[entry_idx]
        vm.fc = fc
        vm.code = fc.code
        vm.regs = list(fc.proto)
        vm.pc = 0
        vm.trace = runner.hooks.wants_function_events
        if vm.trace:
            vm._func_event("on_func_enter", None)
        return vm

    @classmethod
    def from_states(cls, runner, states: list[ScalarState]):
        """Re-fuse: build a batch from per-lane drained states.

        Caller guarantees structural equality (same fc/pc/stack shape).
        Clocks, counters and open probe records are absorbed from the
        per-rank interps, which are authoritative while lanes are drained.
        """
        vm = cls(runner)
        n = vm.n
        t = states[0]
        vm.fc = t.fc
        vm.code = t.code
        vm.pc = t.pc
        vm.trace = t.trace
        vm.regs = [
            _merge_lanes([st.regs[i] for st in states], n)
            for i in range(len(t.regs))
        ]
        vm.glist = [
            _merge_lanes([st.glist[i] for st in states], n)
            for i in range(len(t.glist))
        ]
        vm.stack = [
            (
                ent[0],
                [
                    _merge_lanes([st.stack[d][1][i] for st in states], n)
                    for i in range(len(ent[1]))
                ],
                ent[2], ent[3], ent[4], ent[5],
            )
            for d, ent in enumerate(t.stack)
        ]
        interps = vm.interps
        for pos, interp in enumerate(interps):
            vm.pend_v[pos] = interp._pending_half
            vm.tot_v[pos] = interp._total_half
            vm.pend_frac[pos] = interp._pending_frac
            vm.tot_frac[pos] = interp._total_frac
            vm.counts[pos] = interp.sensor_record_count
            vm.clocks.absorb(pos)
            interp._pending_half = interp._total_half = 0
            interp._pending_frac = interp._total_frac = 0.0
        for sid in interps[0]._open_ticks:
            vm.open_ticks[sid] = (
                np.array([i._open_ticks[sid][0] for i in interps]),
                np.array([i._open_ticks[sid][1] for i in interps], dtype=np.int64),
                np.array([i._open_ticks[sid][2] for i in interps]),
            )
        for interp in interps:
            interp._open_ticks = {}
        return vm

    # -- value plumbing ------------------------------------------------------

    def _lanes(self, M):
        """Positions of the active lanes (``M=None``: every lane)."""
        return range(self.n) if M is None else np.nonzero(M)[0].tolist()

    def _store(self, slot: int, res, M) -> None:
        """``regs[slot] = res`` on the active lanes (``res`` compact)."""
        regs = self.regs
        regs[slot] = res if M is None else _masked(regs[slot], res, M)

    def _lane_floats(self, value) -> list:
        """One float per lane from a full-width Value."""
        if type(value) is _ND:
            return [float(v) for v in value]
        return [float(value)] * self.n

    def _func_event(self, name: str, M) -> None:
        """Buffer ``on_func_enter``/``on_func_exit`` for the active lanes."""
        emit = self.runner.emit
        interps = self.interps
        now = self.clocks.now
        func = self.fc.name
        for pos in self._lanes(M):
            emit(pos, name, (interps[pos].rank, func, float(now[pos])))

    # -- work accounting -----------------------------------------------------

    def _flush_all(self) -> None:
        amounts = (self.pend_u + self.pend_v) * 0.5 + self.pend_frac
        self.clocks.advance_compute(amounts)
        self.pend_u = 0
        self.pend_v[:] = 0
        self.pend_frac[:] = 0.0

    def _charge(self, units: float, M=None) -> None:
        """Charge work to every lane (``M=None``), a lane mask or one lane."""
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            k = int(doubled)
            if M is None:
                self.pend_u += k
                self.tot_u += k
            else:
                self.pend_v[M] += k
                self.tot_v[M] += k
        elif M is None:
            self.pend_frac += units
            self.tot_frac += units
        else:
            self.pend_frac[M] += units
            self.tot_frac[M] += units

    # -- the interpreter loops (rendered from OP_TABLE, see bottom) ----------

    def run(self) -> None:
        while self.state == "running":
            if self.M is None:
                self._run_full()
            else:
                self._run_masked()

    # -- lane handlers: (M, op, a, b, c), M=None at full width ----------------

    def _index(self, M, op, a, b, c):
        regs = self.regs
        arr = regs[b] if op == ops.INDEX else self.glist[b]
        if type(arr) is not list:
            return self._spill(self.pc - 1)  # scalar re-execution raises
        idx = regs[c]
        ln = len(arr)
        if type(idx) is _ND:
            out = []
            for pos in self._lanes(M):
                e = arr[int(idx[pos]) % ln]
                out.append(e[pos] if type(e) is _ND else e)
            res = _obj_vec(out)
        else:
            res = _compact(arr[int(idx) % ln], M)
        self._store(a, res, M)

    def _stidx(self, M, op, a, b, c):
        regs = self.regs
        arr = regs[a] if op == ops.STIDX else self.glist[a]
        if type(arr) is not list:
            return self._spill(self.pc - 1)  # scalar re-execution raises
        idx = regs[b]
        val = regs[c]
        ln = len(arr)
        if type(idx) is _ND:
            n = self.n
            vvec = type(val) is _ND
            for pos in self._lanes(M):
                i = int(idx[pos]) % ln
                cur = arr[i]
                cur = cur.copy() if type(cur) is _ND else _broadcast(cur, n)
                cur[pos] = val[pos] if vvec else val
                arr[i] = cur
        else:
            i = int(idx) % ln
            arr[i] = val if M is None else _masked(arr[i], _compact(val, M), M)

    def _jump(self, M, op, a, b, c):
        if M is not None:
            f = self.frames[-1]
            # Inside a function called under the mask jumps are unrestricted;
            # in the frame's own function only structured targets are.
            if (f.code is self.code and f.depth == len(self.stack)
                    and a != f.merge
                    and not (f.kind == "loop" and f.head <= a <= f.merge)):
                return self._spill(self.pc - 1)
        self.pc = a

    def _cu(self, M, op, a, b, c):
        v = self.regs[a] if a >= 0 else 0.0
        if type(v) is _ND:
            for pos in self._lanes(M):
                self._charge(max(0.0, float(v[pos])), pos)
        else:
            self._charge(max(0.0, float(v)), M)

    def _chkdef(self, M, op, a, b, c):
        v = _compact(self.regs[a], M)
        if any(e is UNDEF for e in v) if type(v) is _ND else v is UNDEF:
            return self._spill(self.pc - 1)  # scalar re-execution raises

    def _loadx(self, M, op, a, b, c):
        value = _compact(self.regs[b], M)
        if type(value) is _ND:
            res = _obj_vec([
                g if e is UNDEF else e
                for e, g in zip(value, _each(_compact(self.glist[c], M)))
            ])
        else:
            res = _compact(self.glist[c], M) if value is UNDEF else value
        self._store(a, res, M)

    def _storex(self, M, op, a, b, c):
        regs = self.regs
        v = regs[a]
        val = regs[c]
        # Lanes whose local slot is still undefined write the global.
        if type(v) is _ND:
            to_global = np.fromiter((e is UNDEF for e in v), bool, self.n)
        else:
            to_global = np.full(self.n, v is UNDEF)
        to_local = ~to_global
        if M is not None:
            to_global &= M
            to_local &= M
        for store, slot, mask in ((self.glist, b, to_global), (regs, a, to_local)):
            if mask.all():
                store[slot] = val
            elif mask.any():
                store[slot] = _masked(store[slot], _compact(val, mask), mask)

    def _resfp(self, M, op, a, b, c):
        slot, gidx = b
        glist = self.glist
        regs = self.regs
        func_index = self.func_index

        def resolve(pos):
            value = None
            if slot >= 0:
                value = _lane_get(regs[slot], pos)
                if value is UNDEF:
                    value = _lane_get(glist[gidx], pos) if gidx >= 0 else None
            elif gidx >= 0:
                value = _lane_get(glist[gidx], pos)
            return func_index.get(value, -1) if type(value) is str else -1

        if M is not None:
            res = _obj_vec([resolve(pos) for pos in self._lanes(M)])
        elif (slot >= 0 and type(regs[slot]) is _ND) or (
            gidx >= 0 and type(glist[gidx]) is _ND
        ):
            res = _merge_lanes([resolve(pos) for pos in range(self.n)], self.n)
        else:
            res = resolve(0)
        self._store(a, res, M)

    def _enter(self, M, callee, dst: int, arg_regs) -> None:
        """Push the caller's frame and start ``callee`` on the active lanes."""
        regs = self.regs
        nregs = list(callee.proto)
        n_args = len(arg_regs)
        for i, slot in enumerate(callee.param_slots):
            nregs[slot] = regs[arg_regs[i]] if i < n_args else 0
        self.stack.append((self.code, regs, self.pc, dst, self.fc, self.trace))
        self.fc = callee
        self.code = callee.code
        self.regs = nregs
        self.pc = 0
        self.trace = self.runner.hooks.wants_function_events
        if self.trace:
            self._func_event("on_func_enter", M)

    def _call(self, M, op, a, b, c):
        self._enter(M, self.funcs[b], a, c)

    def _ret(self, M, op, a, b, c):
        stack = self.stack
        if M is not None:
            f = self.frames[-1]
            if (f.code is self.code and f.depth == len(stack)) or not stack:
                # Divergent return: lanes would leave the function that
                # owns the innermost mask frame.
                return self._spill(self.pc - 1)
        value = self.regs[a] if op == ops.RET else a
        if self.trace:
            self._func_event("on_func_exit", M)
        if not stack:
            return self._finish()
        self.code, self.regs, self.pc, dst, self.fc, self.trace = stack.pop()
        self._store(dst, _compact(value, M), M)

    # -- full-width-only handlers: (op, a, b, c) -----------------------------

    def _now_full(self, op, a, b, c):
        self._flush_all()
        cast = float if op == ops.WTIME else int
        self.regs[a] = _obj_vec([cast(t) for t in self.clocks.now])

    def _probe_sid(self, a: int):
        """The probe's sensor id, or None after draining on a varying one."""
        sid = self.regs[a]
        if type(sid) is _ND:
            self._spill(self.pc - 1)
            return None
        return int(sid)

    def _consult(self, peek, sid: int):
        """Every lane's governor answer if they agree, else None (drained).

        ``peek``/``peek_skip`` are free of side effects: on a non-uniform
        answer the batch drains BEFORE any lane's decision is consumed, and
        the scalar re-execution of the probe consults per lane —
        exactly-once accounting either way.
        """
        answers = [peek(i.rank, sid) for i in self.interps]
        if any(answers) != all(answers):
            self.runner.note_governor_drain()
            self._spill(self.pc - 1)
            return None
        return answers[0]

    def _tick_full(self, op, a, b, c):
        sid = self._probe_sid(a)
        if sid is None:
            return True
        ctl = self.control
        if ctl is not None:
            keep = self._consult(ctl.peek, sid)
            if keep is None:
                return True
            for interp in self.interps:
                ctl.decide(interp.rank, sid)
            if not keep:
                # uniform skip: table check only, no flush — mirrors the
                # scalar skip path exactly
                self._charge(ctl.check_cost)
                return False
        self._charge(self.machine.probe_cost)
        self._flush_all()
        self.open_ticks[sid] = (
            self.clocks.now.copy(),
            self.tot_u + self.tot_v.copy(),
            self.tot_frac.copy(),
        )

    def _tock_full(self, op, a, b, c):
        sid = self._probe_sid(a)
        if sid is None:
            return True
        ctl = self.control
        if ctl is not None:
            skip = self._consult(ctl.peek_skip, sid)
            if skip is None:
                return True
            if skip:
                for interp in self.interps:
                    ctl.pop_skip(interp.rank, sid)
                self._charge(ctl.check_cost)
                return False
        if sid not in self.open_ticks:
            # no open tick: scalar re-execution raises with rank attribution
            return self._spill(self.pc - 1)
        self._flush_all()
        t_start, half_at, frac_at = self.open_ticks.pop(sid)
        self._charge(self.machine.probe_cost)
        # Lane by lane this is the scalar tier's true-work formula.
        true_work = (self.tot_u + self.tot_v - half_at) * 0.5 + (
            self.tot_frac - frac_at
        )
        t_end = self.clocks.now.copy()
        # One normal + one random per lane from that rank's own generator,
        # in lane order: per-rank RNG streams are part of bit-identity.
        draws = [
            draw(t) for draw, t in zip(self.pmu_draws, t_end.tolist())
        ]
        self.counts += 1
        runner = self.runner
        if runner.batch_sink is None and "on_sensor_record" not in runner.sinks:
            return False
        err, miss = np.array(draws).T
        batch = SensorBatch(sid, self.rank_ids, t_start, t_end, true_work * err, miss)
        if runner.batch_sink is not None:
            runner.batch_sink(batch, runner.defer)
        else:
            for pos, args in enumerate(batch.unrolled()):
                runner.emit(pos, "on_sensor_record", args)

    def _io_full(self, op, a, b, c):
        self._io_lanes(b, self._lane_floats(self.regs[c] if c >= 0 else 1.0))
        self.regs[a] = 0

    def _io_lanes(self, opname: str, sizes: list) -> None:
        self._flush_all()
        machine = self.machine
        faults = self.faults
        clocks = self.clocks
        t0 = clocks.now.copy()
        emit = self.runner.emit
        for pos, interp in enumerate(self.interps):
            size = sizes[pos]
            cost = machine.io_alpha + machine.io_beta * size
            cost /= max(io_factor_at(faults, interp.clock.node.node_id,
                                     float(t0[pos])), 1e-6)
            clocks.now[pos] = t0[pos] + max(0.0, cost)
            emit(pos, "on_io",
                 (interp.rank, opname, float(t0[pos]), float(clocks.now[pos]), size))

    def _callind_full(self, op, a, b, c):
        target = self.regs[b]
        if type(target) is _ND:
            first = target[0]
            if not all(t == first for t in target):
                return self._spill(self.pc - 1)
            target = first
        meta, arg_regs = c
        if target >= 0:
            self._enter(None, self.funcs[target], a, arg_regs)
            return False
        return self._extern(a, meta, [self.regs[i] for i in arg_regs])

    def _extern_full(self, op, a, b, c):
        return self._extern(a, b, [self.regs[i] for i in c])

    def _extern(self, dst: int, meta, args):
        """Extern-model call at full width."""
        name, model = meta
        if model is None:
            # The scalar tier raises a per-rank InterpError here — drain so
            # the error surfaces with the right rank attribution.
            return self._spill(self.pc - 1)
        n = self.n

        def units_of(pos):
            units = 1.0
            for idx in model.workload_args:
                if idx < len(args):
                    units *= max(0.0, float(_lane_get(args[idx], pos)))
            return units

        def cost_of(units):
            return model.base_cost + model.unit_cost * (
                units if model.workload_args else 0.0
            )

        if model.category == "net":
            self._flush_all()
            clocks = self.clocks
            network = self.network
            t0 = clocks.now.copy()
            emit = self.runner.emit
            for pos, interp in enumerate(self.interps):
                units = units_of(pos)
                clocks.now[pos] = t0[pos] + max(
                    0.0, cost_of(units) * network.stretch_at(float(t0[pos]))
                )
                emit(pos, "on_mpi_end",
                     (interp.rank, name, float(t0[pos]),
                      float(clocks.now[pos]), units))
        elif model.category == "io":
            self._io_lanes(name, [units_of(pos) for pos in range(n)])
        elif any(type(x) is _ND for x in args):
            for pos in range(n):
                self._charge(cost_of(units_of(pos)), pos)
        else:
            self._charge(cost_of(units_of(0)))
        self.regs[dst] = 0

    # -- MPI (full width only) ----------------------------------------------

    def _mpi_full(self, op, a, b, c):
        self._flush_all()
        n = self.n
        clocks = self.clocks
        engine_op, spelled = b
        regs = self.regs
        if op == ops.COLL:
            size_reg = c
            peers = [-1] * n
        else:
            peer_reg, size_reg = c
            pv = regs[peer_reg] if peer_reg >= 0 else 0
            if type(pv) is _ND:
                peers = [int(p) % self.nmod for p in pv]
            else:
                peers = [int(pv) % self.nmod] * n
        sizes = self._lane_floats(regs[size_reg] if size_reg >= 0 else 0.0)
        t0 = clocks.now.copy()
        runner = self.runner
        if "on_mpi_begin" in runner.sinks:
            emit = runner.emit
            for pos, interp in enumerate(self.interps):
                emit(pos, "on_mpi_begin", (interp.rank, spelled, float(t0[pos])))
        self.block = {
            "dst": a,
            "spelled": spelled,
            "t0": t0,
            "sizes": sizes,
            "delivered": np.zeros(n, dtype=bool),
            "n_delivered": 0,
        }
        self.state = "blocked"
        for pos, interp in enumerate(self.interps):
            runner.queue[pos] = MpiRequest(
                rank=interp.rank,
                op=engine_op,
                size=sizes[pos],
                peer=peers[pos],
                arrive=float(t0[pos]),
            )
        return True

    def deliver(self, pos: int, completion: float) -> None:
        """Eager completion delivery from the engine (batch blocked)."""
        block = self.block
        clocks = self.clocks
        clocks.wait_until_pos(pos, completion)
        runner = self.runner
        if "on_mpi_end" in runner.sinks:
            runner.emit(
                pos, "on_mpi_end",
                (self.interps[pos].rank, block["spelled"],
                 float(block["t0"][pos]), float(clocks.now[pos]),
                 block["sizes"][pos]),
            )
        block["delivered"][pos] = True
        block["n_delivered"] += 1
        if block["n_delivered"] == self.n:
            self.regs[block["dst"]] = 0
            self.block = None
            self.state = "running"

    # -- divergence ----------------------------------------------------------

    def _diverge(self, branch_pc: int, target: int, ok: np.ndarray, M) -> bool:
        """Split the active lanes at a varying conditional jump.

        ``ok`` is the fall-through outcome of each active lane (``M=None``:
        of every lane).  Opens a mask frame — or narrows the innermost loop
        frame when this is its repeated test — and leaves the fall-through
        mask in ``self.M``.  True when the calling loop must stop: always
        at full width (the masked loop takes over), under a mask only when
        the jump has no reconvergence metadata (drained).
        """
        if M is None:
            active = np.ones(self.n, dtype=bool)
            stay = ok
        else:
            active = M
            stay = np.zeros(self.n, dtype=bool)
            stay[M] = ok
            f = self.frames[-1]
            if (f.kind == "loop" and f.start == branch_pc
                    and f.code is self.code and f.depth == len(self.stack)):
                # Repeated loop test: exiting lanes park at the merge.
                self._note_diverge(active, stay)
                self.M = stay
                return False
        cf = self.fc.cf.get(branch_pc)
        if cf is None:
            return self._spill(branch_pc)
        kind, merge, head = cf
        self._note_diverge(active, stay)
        if kind == "if":
            frame = _MaskFrame("if", self.code, self.fc, len(self.stack),
                               branch_pc, merge, -1, active,
                               active & ~stay, target)
        else:
            frame = _MaskFrame("loop", self.code, self.fc, len(self.stack),
                               branch_pc, merge, head, active, None, -1)
        self.frames.append(frame)
        self.M = stay
        return M is None

    def _note_diverge(self, active: np.ndarray, stay: np.ndarray) -> None:
        n_stay = int(stay.sum())
        n_leave = int(active.sum()) - n_stay
        # Minority side counts as "diverged"; ties go to the jump-taken side.
        minority = stay if n_stay < n_leave else active & ~stay
        self.runner.note_diverge(np.nonzero(minority)[0])

    # -- spill / finish ------------------------------------------------------

    def _spill(self, cur_pc: int, blocked: dict | None = None) -> bool:
        """Materialize every lane into a ScalarState and drain the batch."""
        n = self.n
        stack = self.stack
        depth = len(stack)
        park_pc = [cur_pc] * n
        park_depth = [depth] * n
        if self.M is not None:
            covered = self.M.copy()
            for f in reversed(self.frames):
                if f.kind == "if" and f.pending is not None:
                    newly = f.pending & ~covered
                    for pos in np.nonzero(newly)[0]:
                        park_pc[pos] = f.ppc
                        park_depth[pos] = f.depth
                    covered |= f.pending
                newly = f.entry & ~covered
                for pos in np.nonzero(newly)[0]:
                    park_pc[pos] = f.merge
                    park_depth[pos] = f.depth
                covered |= f.entry
        states = []
        for pos in range(n):
            d = park_depth[pos]
            if d == depth:
                lcode, lregs, lfc, ltrace = self.code, self.regs, self.fc, self.trace
            else:
                ent = stack[d]
                lcode, lregs, lfc, ltrace = ent[0], ent[1], ent[4], ent[5]
            st = ScalarState(
                glist=[_lane_get(v, pos) for v in self.glist],
                fc=lfc,
                code=lcode,
                regs=[_lane_get(v, pos) for v in lregs],
                pc=park_pc[pos],
                stack=[
                    (e[0], [_lane_get(v, pos) for v in e[1]],
                     e[2], e[3], e[4], e[5])
                    for e in stack[:d]
                ],
                trace=ltrace,
            )
            states.append(st)
        for pos, interp in enumerate(self.interps):
            interp._pending_half = self.pend_u + int(self.pend_v[pos])
            interp._pending_frac = float(self.pend_frac[pos])
            interp._total_half = self.tot_u + int(self.tot_v[pos])
            interp._total_frac = float(self.tot_frac[pos])
            interp.sensor_record_count = int(self.counts[pos])
            interp._open_ticks = {
                sid: (float(t[pos]), int(h[pos]), float(fr[pos]))
                for sid, (t, h, fr) in self.open_ticks.items()
            }
            self.clocks.export(pos)
        if blocked is not None:
            dst = blocked["dst"]
            for pos, st in enumerate(states):
                st.mpi = (dst, blocked["spelled"], float(blocked["t0"][pos]),
                          blocked["sizes"][pos])
                if blocked["delivered"][pos]:
                    st.regs[dst] = 0
        self.state = "spilled"
        self.runner.on_spill(states, blocked)
        return True

    def spill_blocked(self) -> None:
        """Drain a blocked batch (rendezvous stall: partial delivery)."""
        block = self.block
        self.block = None
        self._spill(self.pc, blocked=block)

    def _finish(self) -> bool:
        """Program end at full width."""
        self._flush_all()
        runner = self.runner
        now = self.clocks.now
        for pos, interp in enumerate(self.interps):
            runner.emit(pos, "on_program_end", (interp.rank, float(now[pos])))
            interp.clock.now = float(now[pos])
            interp._pending_half = 0
            interp._pending_frac = 0.0
            interp._total_half = self.tot_u + int(self.tot_v[pos])
            interp._total_frac = float(self.tot_frac[pos])
            interp.sensor_record_count = int(self.counts[pos])
        self.state = "done"
        runner.on_done()
        return True


# -- loop rendering ------------------------------------------------------------
#
# Both loops are one ``if``/``elif`` chain over OP_TABLE in table (hot-first)
# order.  An entry renders as: a drain, in the masked loop, when its fuse
# class needs the full batch; a call of its handler when it names one; and
# otherwise the *lifted* scalar body —
#
# * work-counter updates are respelled for the fused counters (_COUNTERS);
# * each operand read (``regs[b]``, ``glist[b]``, a per-lane name of the
#   scalar core, MATHOP's argument list) is fetched into a lane variable
#   ``x0, x1, …`` (masked: restricted to the active lanes) and the store
#   target becomes ``res``;
# * with every operand uniform the scalar statements run verbatim; with a
#   varying operand they run once per active lane — or as the single NumPy
#   expression when the body is one assignment NumPy's object-dtype
#   operators already evaluate lane by lane;
# * ``res`` is stored plainly at full width, through the copy-on-write
#   masked store under a mask; a conditional jump whose outcome varies goes
#   through ``_diverge``.

#: per-lane names of the scalar core -> the FusedVM Value holding them
_LANE_ENV = {
    "rank": "self.ranks_vec",
    "rng": "self.rngs",
    "clock.node.node_id": "self.node_val",
}

#: scalar work counter -> its (full-width, masked) spelling
_COUNTERS = {
    "pend_h": ("pend_u", "self.pend_v[M]"),
    "tot_h": ("tot_u", "self.tot_v[M]"),
    "self._pending_frac": ("self.pend_frac", "self.pend_frac[M]"),
    "self._total_frac": ("self.tot_frac", "self.tot_frac[M]"),
}

#: MATHOP's operand: a list of Values, one row of scalars per lane
_ARG_LIST = "[regs[i] for i in c]"

#: operators object-dtype vectors apply lane by lane with Python semantics
_NUMPY_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.USub,
                    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


class _Lifter(ast.NodeTransformer):
    """Respells an elementwise scalar body over lane variables and ``res``."""

    def __init__(self) -> None:
        self.operands: dict[str, str] = {}  # fetch expression -> lane variable
        self.dst = None

    def _operand(self, fetch: str) -> ast.Name:
        name = self.operands.setdefault(fetch, f"x{len(self.operands)}")
        return ast.Name(name, ast.Load())

    def visit_Subscript(self, node):
        text = ast.unparse(node)
        if isinstance(node.ctx, ast.Store):
            self.dst = text
            return ast.Name("res", ast.Store())
        if re.fullmatch(r"(regs|glist)\[[abc]\]", text):
            return self._operand(text)
        return self.generic_visit(node)

    def _lane_name(self, node):
        fetch = _LANE_ENV.get(ast.unparse(node))
        return self._operand(fetch) if fetch else self.generic_visit(node)

    visit_Name = visit_Attribute = _lane_name

    def visit_ListComp(self, node):
        if ast.unparse(node) == _ARG_LIST:
            return self._operand(_ARG_LIST)
        return self.generic_visit(node)


def _numpy_form(expr: ast.expr) -> bool:
    """Whether NumPy evaluates ``expr`` over object vectors lane by lane."""
    for node in ast.walk(expr):
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            ok = isinstance(node.op, _NUMPY_OPERATORS)
        elif isinstance(node, ast.Compare):
            ok = len(node.ops) == 1 and isinstance(node.ops[0], _NUMPY_OPERATORS)
        else:
            ok = isinstance(node, (ast.Name, ast.expr_context, ast.operator,
                                   ast.unaryop, ast.cmpop))
        if not ok:
            return False
    return True


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _lift(spec, masked: bool, save: list[str]) -> list[str]:
    """Fused handler lines for an elementwise entry (the lifting rule)."""
    lifter = _Lifter()
    lines = []
    value = []
    for stmt in lifter.visit(ast.parse(spec.body)).body:
        counter, _, amount = ast.unparse(stmt).partition(" += ")
        if counter in _COUNTERS:
            lines.append(f"{_COUNTERS[counter][masked]} += {amount}")
        else:
            value.append(stmt)
    if not value:
        return lines
    varying, each = [], []
    for fetch, x in lifter.operands.items():
        lines.append(f"{x} = {fetch}")
        if fetch == _ARG_LIST:
            if masked:
                lines.append(f"{x} = [v[M] if type(v) is nd else v for v in {x}]")
            varying.append(f"any(type(v) is nd for v in {x})")
            each.append(f"zip(*map(_each, {x}))")
        else:
            if masked:
                lines += [f"if type({x}) is nd:", f"    {x} = {x}[M]"]
            varying.append(f"type({x}) is nd")
            each.append(f"_each({x})")
    per_lane = f"{', '.join(lifter.operands.values())}, in zip({', '.join(each)})"
    scalar = "\n".join(map(ast.unparse, value)).split("\n")

    if isinstance(value[0], ast.If):  # conditional jump: ``if cond: pc = target``
        cond = value[0].test
        target = ast.unparse(value[0].body[0].value)
        negated = isinstance(cond, ast.UnaryOp) and isinstance(cond.op, ast.Not)
        test = cond.operand if negated else cond
        if isinstance(test, ast.Compare) and _numpy_form(test):
            taken = f"{'~' if negated else ''}np.asarray({ast.unparse(test)}, bool)"
        else:
            taken = f"np.array([bool({ast.unparse(cond)}) for {per_lane}], bool)"
        return lines + [
            f"if {' or '.join(varying)}:",
            f"    taken = {taken}",
            "    if taken.all():",
            f"        pc = {target}",
            "    elif taken.any():",
            *_indent(_indent(save)),
            f"        if self._diverge(pc - 1, {target}, ~taken, {'M' if masked else None}):",
            "            return",
            *(["        M = self.M"] if masked else []),
            "else:",
            *_indent(scalar),
        ]

    one_numpy_expr = (
        len(value) == 1 and isinstance(value[0], ast.Assign)
        and _numpy_form(value[0].value)
    )
    if one_numpy_expr or not varying:
        lines += scalar
    else:
        lines += [
            f"if {' or '.join(varying)}:",
            "    out = []",
            f"    for {per_lane}:",
            *_indent(_indent(scalar)),
            "        out.append(res)",
            "    res = _obj_vec(out)",
            "else:",
            *_indent(scalar),
        ]
    dst = lifter.dst
    lines.append(f"{dst} = _masked({dst}, res, M)" if masked else f"{dst} = res")
    return lines


#: the masked loop's head: restore parked lanes at merge points
_RECONVERGE = """\
while frames:
    f = frames[-1]
    if f.code is not code or pc != f.merge or f.depth != len(stack):
        break
    if f.kind == "if" and f.pending is not None:
        pm = f.pending
        f.pending = None
        if pm.any():
            M = pm
            pc = f.ppc
            # An if with no else has ppc == merge: the re-check pops
            # the frame immediately in that case.
            continue
    M = f.entry
    frames.pop()
if not frames:
    self.M = None
    self.pc = pc
    return
""".splitlines()


def render_loop(masked: bool) -> str:
    """Source of ``FusedVM._run_masked`` / ``FusedVM._run_full``."""
    owned = ["pc", "M"] if masked else ["pc", "pend_u", "tot_u"]
    save = [f"self.{name} = {name}" for name in owned]
    load = [f"{name} = self.{name}" for name in ["code", "regs"] + owned]
    head = ["nd = _ND", "glist = self.glist"] + load
    if masked:
        head += ["frames = self.frames", "stack = self.stack"]
    lines = [f"def {'_run_masked' if masked else '_run_full'}(self):"]
    lines += _indent(head + ["while True:"])
    step = (_RECONVERGE if masked else []) + ["op, a, b, c = code[pc]", "pc += 1"]
    keyword = "if"
    for spec in OP_TABLE:
        test = " or ".join(f"op == {code}" for code in spec.codes)
        step.append(f"{keyword} {test}:  # {spec.name}")
        keyword = "elif"
        full_only = spec.fuse in NEEDS_FULL_BATCH
        if masked and full_only:
            body = save + ["return self._spill(pc - 1)"]
        elif spec.handler is not None:
            args = "op, a, b, c" if full_only else f"{'M' if masked else None}, op, a, b, c"
            body = save + [f"if self.{spec.handler}({args}):", "    return"] + load
        else:
            body = _lift(spec, masked, save)
        step += _indent(body)
    step += [
        "else:  # pragma: no cover - compiler never emits unknown ops",
        "    raise InterpError(f'bad opcode {op}')",
    ]
    return "\n".join(lines + _indent(_indent(step))) + "\n"


def _build_loops():
    namespace = {
        "np": np, "_ND": _ND, "InterpError": InterpError,
        "_obj_vec": _obj_vec, "_each": _each, "_masked": _masked,
    }
    for name, masked in (("_run_full", False), ("_run_masked", True)):
        exec(compile(render_loop(masked), f"<lockstep{name}>", "exec"), namespace)
    return namespace["_run_full"], namespace["_run_masked"]


FusedVM._run_full, FusedVM._run_masked = _build_loops()
