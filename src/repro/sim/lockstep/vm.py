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
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpError
from repro.sim.bytecode.dispatch import UNDEF, ScalarState
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
        self.nmod = max(1, first.n_ranks)
        self.ranks_vec = _obj_vec([i.rank for i in self.interps])
        self.rank_ids = np.array([i.rank for i in self.interps], dtype=np.int64)
        self.pmu_draws = [i.pmu.draw for i in self.interps]
        node_ids = [i.clock.node.node_id for i in self.interps]
        self.node_val = (
            node_ids[0] if len(set(node_ids)) == 1 else _obj_vec(node_ids)
        )
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
            now = vm.clocks.now
            for pos in range(vm.n):
                runner.emit(pos, "on_func_enter",
                            (vm.interps[pos].rank, fc.name, float(now[pos])))
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

    def _mput(self, slot: int, value, M) -> None:
        """Masked store of a full-width (or uniform) value into a register."""
        self.regs[slot] = self._merge_value(self.regs[slot], value, M)

    def _mputc(self, slot: int, res, M) -> None:
        """Masked store of a compact (active-lanes-only) result."""
        old = self.regs[slot]
        new = old.copy() if type(old) is _ND else _broadcast(old, self.n)
        new[M] = res
        self.regs[slot] = new

    def _merge_value(self, old, value, M):
        new = old.copy() if type(old) is _ND else _broadcast(old, self.n)
        if type(value) is _ND:
            new[M] = value[M]
        elif type(value) is list:
            for i in np.nonzero(M)[0]:
                new[i] = value
        else:
            new[M] = value
        return new

    # -- work accounting -----------------------------------------------------

    def _flush_all(self) -> None:
        amounts = (self.pend_u + self.pend_v) * 0.5 + self.pend_frac
        self.clocks.advance_compute(amounts)
        self.pend_u = 0
        self.pend_v[:] = 0
        self.pend_frac[:] = 0.0

    def _charge_uniform(self, units: float) -> None:
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            k = int(doubled)
            self.pend_u += k
            self.tot_u += k
        else:
            self.pend_frac += units
            self.tot_frac += units

    def _charge_lane(self, pos: int, units: float) -> None:
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            k = int(doubled)
            self.pend_v[pos] += k
            self.tot_v[pos] += k
        else:
            self.pend_frac[pos] += units
            self.tot_frac[pos] += units

    # -- the full-width interpreter loop -------------------------------------

    def run(self) -> None:
        while self.state == "running":
            if self.M is None:
                self._run_full()
            else:
                self._run_masked()

    def _run_full(self) -> None:  # noqa: C901 - the dispatch ladder
        runner = self.runner
        interps = self.interps
        clocks = self.clocks
        n = self.n
        funcs = self.funcs
        undef = UNDEF
        nd = _ND
        emit = runner.emit
        glist = self.glist
        fc = self.fc
        code = self.code
        regs = self.regs
        pc = self.pc
        stack = self.stack
        trace = self.trace
        pend_u = self.pend_u
        tot_u = self.tot_u

        def sync():
            self.fc = fc
            self.code = code
            self.regs = regs
            self.pc = pc
            self.trace = trace
            self.pend_u = pend_u
            self.tot_u = tot_u

        while True:
            op, a, b, c = code[pc]
            pc += 1
            if op == 15:  # CHARGE
                pend_u += a
                tot_u += a
            elif op == 25:  # MOVE
                regs[a] = regs[b]
            elif op == 0:  # ADD
                regs[a] = regs[b] + regs[c]
            elif op == 1:  # SUB
                regs[a] = regs[b] - regs[c]
            elif op == 2:  # MUL
                regs[a] = regs[b] * regs[c]
            elif op == 31 or op == 33:  # INDEX / INDEXG
                arr = regs[b] if op == 31 else glist[b]
                if type(arr) is not list:
                    sync()
                    return self._spill(pc - 1)
                idx = regs[c]
                if type(idx) is nd:
                    ln = len(arr)
                    out = []
                    for pos in range(n):
                        e = arr[int(idx[pos]) % ln]
                        out.append(e[pos] if type(e) is nd else e)
                    regs[a] = _obj_vec(out)
                else:
                    regs[a] = arr[int(idx) % len(arr)]
            elif op == 32 or op == 34:  # STIDX / STIDXG
                arr = regs[a] if op == 32 else glist[a]
                if type(arr) is not list:
                    sync()
                    return self._spill(pc - 1)
                idx = regs[b]
                if type(idx) is nd:
                    val = regs[c]
                    ln = len(arr)
                    vvec = type(val) is nd
                    for pos in range(n):
                        i = int(idx[pos]) % ln
                        cur = arr[i]
                        cur = cur.copy() if type(cur) is nd else _broadcast(cur, n)
                        cur[pos] = val[pos] if vvec else val
                        arr[i] = cur
                else:
                    arr[int(idx) % len(arr)] = regs[c]
            elif 19 <= op <= 24 or op == 17 or op == 18:  # JXX_F / JF / JT
                if op == 17 or op == 18:
                    x = regs[a]
                    target = b
                    if type(x) is not nd:
                        if (not x) if op == 17 else x:
                            pc = target
                        continue
                    # ok = lanes that fall through (JF falls through on truthy)
                    ok = self._truthy(x, None)
                    if op == 18:
                        ok = ~ok
                else:
                    x = regs[a]
                    y = regs[b]
                    target = c
                    if type(x) is not nd and type(y) is not nd:
                        if not self._cmp_scalar(op, x, y):
                            pc = target
                        continue
                    ok = self._cmp_vec(op, x, y, None)
                if ok.all():
                    continue
                if not ok.any():
                    pc = target
                    continue
                sync()
                self._diverge(pc - 1, target, ok)
                return
            elif op == 16:  # JUMP
                pc = a
            elif op == 40:  # CU
                v = regs[a] if a >= 0 else None
                if type(v) is nd:
                    pend_v = self.pend_v
                    tot_v = self.tot_v
                    pend_frac = self.pend_frac
                    tot_frac = self.tot_frac
                    for pos in range(n):
                        units = max(0.0, float(v[pos]))
                        doubled = units + units
                        if doubled < 1e15 and doubled == int(doubled):
                            k = int(doubled)
                            pend_v[pos] += k
                            tot_v[pos] += k
                        else:
                            pend_frac[pos] += units
                            tot_frac[pos] += units
                else:
                    units = max(0.0, float(v)) if a >= 0 else 0.0
                    doubled = units + units
                    if doubled < 1e15 and doubled == int(doubled):
                        k = int(doubled)
                        pend_u += k
                        tot_u += k
                    else:
                        self.pend_frac += units
                        self.tot_frac += units
            elif op == 3:  # DIV
                left = regs[b]
                right = regs[c]
                if type(left) is nd or type(right) is nd:
                    regs[a] = self._div_vec(left, right, None)
                elif right == 0:
                    regs[a] = 0
                elif type(left) is int and type(right) is int:
                    regs[a] = (
                        left // right
                        if (left >= 0) == (right >= 0)
                        else -((-left) // right)
                    )
                else:
                    regs[a] = left / right
            elif op == 4:  # MOD
                left = regs[b]
                right = regs[c]
                if type(left) is nd or type(right) is nd:
                    regs[a] = self._mod_vec(left, right, None)
                else:
                    regs[a] = left % right if right != 0 else 0
            elif 5 <= op <= 12:  # LT..NE / ANDL / ORL
                x = regs[b]
                y = regs[c]
                if type(x) is nd or type(y) is nd:
                    regs[a] = self._logic_vec(op, x, y, None)
                else:
                    regs[a] = 1 if self._cmp_scalar(op, x, y) else 0
            elif op == 13:  # NEG
                regs[a] = -regs[b]
            elif op == 14:  # NOTL
                x = regs[b]
                if type(x) is nd:
                    regs[a] = _obj_vec([0 if e else 1 for e in x])
                else:
                    regs[a] = 0 if x else 1
            elif op == 26:  # LOADG
                regs[a] = glist[b]
            elif op == 27:  # STOREG
                glist[a] = regs[b]
            elif op == 28:  # CHKDEF
                v = regs[a]
                if type(v) is nd:
                    if any(e is undef for e in v):
                        sync()
                        return self._spill(pc - 1)
                elif v is undef:
                    sync()
                    return self._spill(pc - 1)
            elif op == 29:  # LOADX
                value = regs[b]
                if type(value) is nd:
                    if any(e is undef for e in value):
                        g = glist[c]
                        gvec = type(g) is nd
                        regs[a] = _obj_vec([
                            (g[pos] if gvec else g) if value[pos] is undef
                            else value[pos]
                            for pos in range(n)
                        ])
                    else:
                        regs[a] = value
                else:
                    regs[a] = glist[c] if value is undef else value
            elif op == 30:  # STOREX
                v = regs[a]
                if type(v) is nd:
                    um = np.fromiter((e is undef for e in v), bool, n)
                    if um.all():
                        glist[b] = regs[c]
                    elif not um.any():
                        regs[a] = regs[c]
                    else:
                        glist[b] = self._merge_value(glist[b], regs[c], um)
                        regs[a] = self._merge_value(v, regs[c], ~um)
                elif v is undef:
                    glist[b] = regs[c]
                else:
                    regs[a] = regs[c]
            elif op == 35:  # NEWARR
                regs[a] = [c] * b
            elif op == 48:  # MATHOP
                pend_u += 4
                tot_u += 4
                args = [regs[i] for i in c]
                if any(type(x) is nd for x in args):
                    regs[a] = self._math_vec(b, args, None)
                else:
                    try:
                        regs[a] = b(*args)
                    except (ValueError, OverflowError):
                        regs[a] = 0.0
            elif op == 36:  # CALL
                callee = funcs[b]
                nregs = list(callee.proto)
                n_args = len(c)
                for i, slot in enumerate(callee.param_slots):
                    nregs[slot] = regs[c[i]] if i < n_args else 0
                stack.append((code, regs, pc, a, fc, trace))
                fc = callee
                code = callee.code
                regs = nregs
                pc = 0
                trace = runner.hooks.wants_function_events
                if trace:
                    now = clocks.now
                    name = fc.name
                    for pos in range(n):
                        emit(pos, "on_func_enter",
                             (interps[pos].rank, name, float(now[pos])))
            elif op == 38 or op == 39:  # RET / RETK
                value = regs[a] if op == 38 else a
                if trace:
                    now = clocks.now
                    name = fc.name
                    for pos in range(n):
                        emit(pos, "on_func_exit",
                             (interps[pos].rank, name, float(now[pos])))
                if not stack:
                    sync()
                    return self._finish()
                code, regs, pc, dst, fc, trace = stack.pop()
                regs[dst] = value
            elif op == 43:  # RANKOP
                self.pend_frac += 0.1
                self.tot_frac += 0.1
                regs[a] = self.ranks_vec
            elif op == 44:  # SIZEOP
                self.pend_frac += 0.1
                self.tot_frac += 0.1
                regs[a] = interps[0].n_ranks
            elif op == 45:  # WTIME
                self.pend_u = pend_u
                self.tot_u = tot_u
                self._flush_all()
                pend_u = 0
                regs[a] = _obj_vec([float(t) for t in clocks.now])
            elif op == 46 or op == 47:  # COLL / P2P
                sync()
                return self._mpi_full(op, a, b, c)
            elif op == 41 or op == 42:  # TICKOP / TOCKOP
                sid = regs[a]
                if type(sid) is nd:
                    sync()
                    return self._spill(pc - 1)
                ctl = self.control
                if ctl is None:
                    self.pend_u = pend_u
                    self.tot_u = tot_u
                    if op == 41:
                        self._tick_full(int(sid))
                    elif not self._tock_full(int(sid)):
                        sync()
                        return self._spill(pc - 1)
                    pend_u = self.pend_u
                    tot_u = self.tot_u
                else:
                    # Governor consult. ``peek``/``peek_skip`` are free of
                    # side effects: on a non-uniform answer the batch drains
                    # BEFORE any lane's decision is consumed, and the scalar
                    # re-execution of this op consults per lane —
                    # exactly-once accounting either way.
                    sidn = int(sid)
                    if op == 41:
                        keeps = [ctl.peek(i.rank, sidn) for i in interps]
                        if any(keeps) != all(keeps):
                            self.runner.note_governor_drain()
                            sync()
                            return self._spill(pc - 1)
                        self.pend_u = pend_u
                        self.tot_u = tot_u
                        for i in interps:
                            ctl.decide(i.rank, sidn)
                        if keeps[0]:
                            self._tick_full(sidn)
                        else:
                            # uniform skip: table check only, no flush —
                            # mirrors the scalar skip path exactly
                            self._charge_uniform(ctl.check_cost)
                        pend_u = self.pend_u
                        tot_u = self.tot_u
                    else:
                        skips = [ctl.peek_skip(i.rank, sidn) for i in interps]
                        if any(skips) != all(skips):
                            self.runner.note_governor_drain()
                            sync()
                            return self._spill(pc - 1)
                        self.pend_u = pend_u
                        self.tot_u = tot_u
                        if skips[0]:
                            for i in interps:
                                ctl.pop_skip(i.rank, sidn)
                            self._charge_uniform(ctl.check_cost)
                        elif not self._tock_full(sidn):
                            sync()
                            return self._spill(pc - 1)
                        pend_u = self.pend_u
                        tot_u = self.tot_u
            elif op == 49:  # IOOP
                self.pend_u = pend_u
                self.tot_u = tot_u
                self._io_full(b, regs[c] if c >= 0 else None)
                pend_u = 0
                regs[a] = 0
            elif op == 50:  # RANDOP
                pend_u += 1
                tot_u += 1
                regs[a] = _merge_lanes(
                    [int(i._rng.integers(0, 2**31 - 1)) for i in interps], n
                )
            elif op == 52:  # CLOCKOP
                self.pend_u = pend_u
                self.tot_u = tot_u
                self._flush_all()
                pend_u = 0
                regs[a] = _obj_vec([int(t) for t in clocks.now])
            elif op == 53:  # HOSTOP
                pend_u += 1
                tot_u += 1
                regs[a] = self.node_val
            elif op == 55:  # RESFP
                slot, gidx = b
                self.regs = regs
                regs[a] = self._resfp(slot, gidx, None)
            elif op == 37:  # CALLIND
                target = regs[b]
                if type(target) is nd:
                    first = target[0]
                    if not all(t == first for t in target):
                        sync()
                        return self._spill(pc - 1)
                    target = first
                meta, arg_regs = c
                if target >= 0:
                    callee = funcs[target]
                    nregs = list(callee.proto)
                    n_args = len(arg_regs)
                    for i, slot in enumerate(callee.param_slots):
                        nregs[slot] = regs[arg_regs[i]] if i < n_args else 0
                    stack.append((code, regs, pc, a, fc, trace))
                    fc = callee
                    code = callee.code
                    regs = nregs
                    pc = 0
                    trace = runner.hooks.wants_function_events
                    if trace:
                        now = clocks.now
                        name = fc.name
                        for pos in range(n):
                            emit(pos, "on_func_enter",
                                 (interps[pos].rank, name, float(now[pos])))
                else:
                    self.pend_u = pend_u
                    self.tot_u = tot_u
                    sync()
                    if not self._extern_full(a, meta,
                                             [regs[i] for i in arg_regs]):
                        return
                    pend_u = self.pend_u
                    tot_u = self.tot_u
            elif op == 54:  # EXTCALL
                self.pend_u = pend_u
                self.tot_u = tot_u
                sync()
                if not self._extern_full(a, b, [regs[i] for i in c]):
                    return
                pend_u = self.pend_u
                tot_u = self.tot_u
            else:  # pragma: no cover - compiler never emits unknown ops
                raise InterpError(f"bad opcode {op}")

    # -- scalar-op helpers ---------------------------------------------------

    @staticmethod
    def _cmp_scalar(op: int, x, y) -> bool:
        if op == 5 or op == 19:
            return x < y
        if op == 6 or op == 20:
            return x <= y
        if op == 7 or op == 21:
            return x > y
        if op == 8 or op == 22:
            return x >= y
        if op == 9 or op == 23:
            return x == y
        if op == 10 or op == 24:
            return x != y
        if op == 11:
            return bool(x and y)
        return bool(x or y)  # ORL

    def _compact(self, v, M):
        if type(v) is _ND:
            return v[M] if M is not None else v
        return v

    def _truthy(self, x, M) -> np.ndarray:
        xa = self._compact(x, M)
        if type(xa) is _ND:
            return np.fromiter((bool(e) for e in xa), bool, len(xa))
        size = int(M.sum()) if M is not None else self.n
        return np.full(size, bool(xa))

    def _cmp_vec(self, op: int, x, y, M) -> np.ndarray:
        """Comparison outcome (True = fall through) over active lanes."""
        xa = self._compact(x, M)
        ya = self._compact(y, M)
        if op == 19:
            r = xa < ya
        elif op == 20:
            r = xa <= ya
        elif op == 21:
            r = xa > ya
        elif op == 22:
            r = xa >= ya
        elif op == 23:
            r = xa == ya
        else:
            r = xa != ya
        if type(r) is _ND:
            return r.astype(bool)
        size = int(M.sum()) if M is not None else self.n
        return np.full(size, bool(r))

    def _pairs(self, x, y, M):
        xa = self._compact(x, M)
        ya = self._compact(y, M)
        size = len(xa) if type(xa) is _ND else (
            len(ya) if type(ya) is _ND else
            (int(M.sum()) if M is not None else self.n)
        )
        xs = xa if type(xa) is _ND else [xa] * size
        ys = ya if type(ya) is _ND else [ya] * size
        return xs, ys

    def _div_vec(self, x, y, M) -> np.ndarray:
        out = []
        for left, right in zip(*self._pairs(x, y, M)):
            if right == 0:
                out.append(0)
            elif type(left) is int and type(right) is int:
                out.append(
                    left // right
                    if (left >= 0) == (right >= 0)
                    else -((-left) // right)
                )
            else:
                out.append(left / right)
        return _obj_vec(out)

    def _mod_vec(self, x, y, M) -> np.ndarray:
        return _obj_vec([
            left % right if right != 0 else 0
            for left, right in zip(*self._pairs(x, y, M))
        ])

    def _logic_vec(self, op: int, x, y, M) -> np.ndarray:
        cmp = self._cmp_scalar
        return _obj_vec([
            1 if cmp(op, left, right) else 0
            for left, right in zip(*self._pairs(x, y, M))
        ])

    def _math_vec(self, fn, args, M) -> np.ndarray:
        size = None
        cols = []
        for v in args:
            va = self._compact(v, M)
            cols.append(va)
            if type(va) is _ND:
                size = len(va)
        if size is None:  # pragma: no cover - callers check for a vector
            size = int(M.sum()) if M is not None else self.n
        out = []
        for i in range(size):
            row = [v[i] if type(v) is _ND else v for v in cols]
            try:
                out.append(fn(*row))
            except (ValueError, OverflowError):
                out.append(0.0)
        return _obj_vec(out)

    def _resfp(self, slot: int, gidx: int, M):
        n = self.n
        glist = self.glist
        regs = self.regs
        undef = UNDEF

        def resolve(pos):
            value = None
            if slot >= 0:
                value = _lane_get(regs[slot], pos)
                if value is undef:
                    value = _lane_get(glist[gidx], pos) if gidx >= 0 else None
            elif gidx >= 0:
                value = _lane_get(glist[gidx], pos)
            return self.func_index.get(value, -1) if type(value) is str else -1

        if M is None:
            varying = (slot >= 0 and type(regs[slot]) is _ND) or (
                gidx >= 0 and type(glist[gidx]) is _ND
            )
            if not varying:
                return resolve(0)
            return _merge_lanes([resolve(pos) for pos in range(n)], n)
        return _obj_vec([resolve(int(p)) for p in np.nonzero(M)[0]])

    # -- observation ops (full width only) -----------------------------------

    def _tick_full(self, sid: int) -> None:
        self._charge_uniform(self.machine.probe_cost)
        self._flush_all()
        self.open_ticks[sid] = (
            self.clocks.now.copy(),
            self.tot_u + self.tot_v.copy(),
            self.tot_frac.copy(),
        )

    def _tock_full(self, sid: int) -> bool:
        """Returns False when there is no open tick (spill -> scalar raise)."""
        if sid not in self.open_ticks:
            return False  # scalar re-execution raises with rank attribution
        self._flush_all()
        t_start, half_at, frac_at = self.open_ticks.pop(sid)
        self._charge_uniform(self.machine.probe_cost)
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
            return True
        err, miss = np.array(draws).T
        batch = SensorBatch(sid, self.rank_ids, t_start, t_end, true_work * err, miss)
        if runner.batch_sink is not None:
            runner.batch_sink(batch, runner.defer)
        else:
            for pos, args in enumerate(batch.unrolled()):
                runner.emit(pos, "on_sensor_record", args)
        return True

    def _io_full(self, opname: str, size_val) -> None:
        from repro.sim.faults import io_factor_at

        self._flush_all()
        n = self.n
        machine = self.machine
        faults = self.faults
        clocks = self.clocks
        t0 = clocks.now.copy()
        vvec = type(size_val) is _ND
        emit = self.runner.emit
        for pos, interp in enumerate(self.interps):
            if size_val is None:
                size = 1.0
            else:
                size = float(size_val[pos]) if vvec else float(size_val)
            cost = machine.io_alpha + machine.io_beta * size
            cost /= max(io_factor_at(faults, interp.clock.node.node_id,
                                     float(t0[pos])), 1e-6)
            clocks.now[pos] = t0[pos] + max(0.0, cost)
            emit(pos, "on_io",
                 (interp.rank, opname, float(t0[pos]), float(clocks.now[pos]), size))

    def _extern_full(self, dst: int, meta, args) -> bool:
        """Extern-model call at full width; False when spilled."""
        name, model = meta
        if model is None:
            # The scalar tier raises a per-rank InterpError here — drain so
            # the error surfaces with the right rank attribution.
            self._spill(self.pc - 1)
            return False
        n = self.n
        varying = any(type(x) is _ND for x in args)

        def units_of(pos):
            units = 1.0
            for idx in model.workload_args:
                if idx < len(args):
                    units *= max(0.0, float(_lane_get(args[idx], pos)))
            return units

        if model.category == "net":
            self._flush_all()
            clocks = self.clocks
            network = self.network
            t0 = clocks.now.copy()
            emit = self.runner.emit
            for pos, interp in enumerate(self.interps):
                units = units_of(pos)
                cost = model.base_cost + model.unit_cost * (
                    units if model.workload_args else 0.0
                )
                clocks.now[pos] = t0[pos] + max(
                    0.0, cost * network.stretch_at(float(t0[pos]))
                )
                emit(pos, "on_mpi_end",
                     (interp.rank, name, float(t0[pos]),
                      float(clocks.now[pos]), units))
        elif model.category == "io":
            from repro.sim.faults import io_factor_at

            self._flush_all()
            machine = self.machine
            clocks = self.clocks
            t0 = clocks.now.copy()
            emit = self.runner.emit
            for pos, interp in enumerate(self.interps):
                units = units_of(pos)
                cost = machine.io_alpha + machine.io_beta * units
                cost /= max(io_factor_at(self.faults,
                                         interp.clock.node.node_id,
                                         float(t0[pos])), 1e-6)
                clocks.now[pos] = t0[pos] + max(0.0, cost)
                emit(pos, "on_io",
                     (interp.rank, name, float(t0[pos]),
                      float(clocks.now[pos]), units))
        elif not varying:
            units = units_of(0)
            cost = model.base_cost + model.unit_cost * (
                units if model.workload_args else 0.0
            )
            self._charge_uniform(cost)
        else:
            for pos in range(n):
                units = units_of(pos)
                cost = model.base_cost + model.unit_cost * (
                    units if model.workload_args else 0.0
                )
                self._charge_lane(pos, cost)
        self.regs[dst] = 0
        return True

    # -- MPI (full width only) ----------------------------------------------

    def _mpi_full(self, op: int, a: int, b, c) -> None:
        self._flush_all()
        n = self.n
        clocks = self.clocks
        engine_op, spelled = b
        regs = self.regs
        nd = _ND
        if op == 46:  # COLL
            size_val = regs[c] if c >= 0 else None
            peers = None
        else:  # P2P
            peer_reg, size_reg = c
            size_val = regs[size_reg] if size_reg >= 0 else None
            if peer_reg >= 0:
                pv = regs[peer_reg]
                if type(pv) is nd:
                    peers = [int(pv[pos]) % self.nmod for pos in range(n)]
                else:
                    peers = [int(pv) % self.nmod] * n
            else:
                peers = [0] * n
        if size_val is None:
            sizes = [0.0] * n
        elif type(size_val) is nd:
            sizes = [float(size_val[pos]) for pos in range(n)]
        else:
            sizes = [float(size_val)] * n
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
                peer=(peers[pos] if peers is not None else -1),
                arrive=float(t0[pos]),
            )

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

    def _diverge(self, branch_pc: int, target: int, ok: np.ndarray) -> bool:
        """Open (or narrow) a mask frame at a varying conditional.

        ``ok`` is the fall-through mask over all lanes (full mode).
        Returns False when the op had no reconvergence metadata (spilled).
        """
        cf = self.fc.cf.get(branch_pc)
        if cf is None:
            return self._spill_false(branch_pc)
        kind, merge, head = cf
        n = self.n
        entry = np.ones(n, dtype=bool)
        self._note_diverge(entry, ok, target_side_jump=True)
        if kind == "if":
            frame = _MaskFrame("if", self.code, self.fc, len(self.stack),
                               branch_pc, merge, -1, entry,
                               entry & ~ok, target)
        else:
            frame = _MaskFrame("loop", self.code, self.fc, len(self.stack),
                               branch_pc, merge, head, entry, None, -1)
        self.frames.append(frame)
        self.M = ok.copy()
        self.pc = branch_pc + 1
        return True

    def _note_diverge(self, active: np.ndarray, ok: np.ndarray, *,
                      target_side_jump: bool) -> None:
        runner = self.runner
        stay = int(ok.sum())
        leave = int(active.sum()) - stay
        # Minority side counts as "diverged"; ties go to the jump-taken side.
        if stay < leave:
            minority = active & ok
        else:
            minority = active & ~ok
        runner.note_diverge(np.nonzero(minority)[0])

    def _spill_false(self, at_pc: int) -> bool:
        self._spill(at_pc)
        return False

    # -- the masked interpreter loop -----------------------------------------

    def _run_masked(self) -> None:  # noqa: C901 - the dispatch ladder
        runner = self.runner
        interps = self.interps
        clocks = self.clocks
        n = self.n
        funcs = self.funcs
        undef = UNDEF
        nd = _ND
        emit = runner.emit
        glist = self.glist
        fc = self.fc
        code = self.code
        regs = self.regs
        pc = self.pc
        stack = self.stack
        trace = self.trace
        frames = self.frames
        M = self.M

        def sync():
            self.fc = fc
            self.code = code
            self.regs = regs
            self.pc = pc
            self.trace = trace
            self.M = M

        while True:
            # Reconvergence check: restore parked lanes at merge points.
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
                        # An if with no else has ppc == merge: the loop
                        # re-check pops the frame immediately in that case.
                        continue
                M = f.entry
                frames.pop()
            if not frames:
                self.M = None
                sync()
                self.M = None
                return
            self.regs = regs  # keep self fresh for helpers below

            op, a, b, c = code[pc]
            pc += 1
            if op == 15:  # CHARGE
                self.pend_v[M] += a
                self.tot_v[M] += a
            elif op == 25:  # MOVE
                self._mput(a, regs[b], M)
            elif op == 0 or op == 1 or op == 2:  # ADD / SUB / MUL
                xa = self._compact(regs[b], M)
                ya = self._compact(regs[c], M)
                if op == 0:
                    res = xa + ya
                elif op == 1:
                    res = xa - ya
                else:
                    res = xa * ya
                self._mputc(a, res, M)
                regs = self.regs
            elif op == 31 or op == 33:  # INDEX / INDEXG
                arr = regs[b] if op == 31 else glist[b]
                if type(arr) is not list:
                    sync()
                    return self._spill(pc - 1)
                idx = regs[c]
                ln = len(arr)
                if type(idx) is nd:
                    out = []
                    for pos in np.nonzero(M)[0]:
                        e = arr[int(idx[pos]) % ln]
                        out.append(e[pos] if type(e) is nd else e)
                    self._mputc(a, _obj_vec(out), M)
                else:
                    e = arr[int(idx) % ln]
                    if type(e) is nd:
                        self._mputc(a, e[M], M)
                    else:
                        self._mputc(a, e, M)
                regs = self.regs
            elif op == 32 or op == 34:  # STIDX / STIDXG
                arr = regs[a] if op == 32 else glist[a]
                if type(arr) is not list:
                    sync()
                    return self._spill(pc - 1)
                idx = regs[b]
                val = regs[c]
                ln = len(arr)
                vvec = type(val) is nd
                if type(idx) is nd:
                    for pos in np.nonzero(M)[0]:
                        i = int(idx[pos]) % ln
                        cur = arr[i]
                        cur = cur.copy() if type(cur) is nd else _broadcast(cur, n)
                        cur[pos] = val[pos] if vvec else val
                        arr[i] = cur
                else:
                    i = int(idx) % ln
                    arr[i] = self._merge_value(arr[i], val, M)
            elif 19 <= op <= 24 or op == 17 or op == 18:  # branches
                if op == 17 or op == 18:
                    x = regs[a]
                    target = b
                    ok = self._truthy(x, M)
                    if op == 18:
                        ok = ~ok
                else:
                    target = c
                    ok = self._cmp_vec(op, regs[a], regs[b], M)
                if ok.all():
                    continue
                if not ok.any():
                    pc = target
                    continue
                okfull = np.zeros(n, dtype=bool)
                okfull[M] = ok
                f = frames[-1]
                if (f.kind == "loop" and f.start == pc - 1
                        and f.code is code and f.depth == len(stack)):
                    # Repeated loop test: exiting lanes park at the merge.
                    self._note_diverge(M, okfull & M, target_side_jump=True)
                    M = okfull
                    continue
                cf = fc.cf.get(pc - 1)
                if cf is None:
                    sync()
                    return self._spill(pc - 1)
                kind, merge, head = cf
                self._note_diverge(M, okfull & M, target_side_jump=True)
                if kind == "if":
                    frames.append(_MaskFrame(
                        "if", code, fc, len(stack), pc - 1, merge, -1,
                        M.copy(), M & ~okfull, target))
                else:
                    frames.append(_MaskFrame(
                        "loop", code, fc, len(stack), pc - 1, merge, head,
                        M.copy(), None, -1))
                M = okfull
            elif op == 16:  # JUMP
                f = frames[-1]
                if f.code is not code or f.depth != len(stack):
                    # Inside a function called under the mask: unrestricted.
                    pc = a
                elif a == f.merge:
                    pc = a
                elif f.kind == "loop" and f.head <= a <= f.merge:
                    pc = a
                else:
                    sync()
                    return self._spill(pc - 1)
            elif op == 40:  # CU
                v = regs[a] if a >= 0 else None
                if type(v) is nd:
                    for pos in np.nonzero(M)[0]:
                        self._charge_lane(int(pos), max(0.0, float(v[pos])))
                else:
                    units = max(0.0, float(v)) if a >= 0 else 0.0
                    doubled = units + units
                    if doubled < 1e15 and doubled == int(doubled):
                        k = int(doubled)
                        self.pend_v[M] += k
                        self.tot_v[M] += k
                    else:
                        self.pend_frac[M] += units
                        self.tot_frac[M] += units
            elif op == 3:  # DIV
                self._mputc(a, self._div_vec(regs[b], regs[c], M), M)
                regs = self.regs
            elif op == 4:  # MOD
                self._mputc(a, self._mod_vec(regs[b], regs[c], M), M)
                regs = self.regs
            elif 5 <= op <= 12:  # LT..NE / ANDL / ORL
                x = regs[b]
                y = regs[c]
                if type(x) is nd or type(y) is nd:
                    res = self._logic_vec(op, x, y, M)
                else:
                    res = 1 if self._cmp_scalar(op, x, y) else 0
                self._mputc(a, res, M)
                regs = self.regs
            elif op == 13:  # NEG
                self._mputc(a, -self._compact(regs[b], M), M)
                regs = self.regs
            elif op == 14:  # NOTL
                xa = self._compact(regs[b], M)
                if type(xa) is nd:
                    res = _obj_vec([0 if e else 1 for e in xa])
                else:
                    res = 0 if xa else 1
                self._mputc(a, res, M)
                regs = self.regs
            elif op == 26:  # LOADG
                self._mput(a, glist[b], M)
                regs = self.regs
            elif op == 27:  # STOREG
                glist[a] = self._merge_value(glist[a], regs[b], M)
            elif op == 28:  # CHKDEF
                v = regs[a]
                if type(v) is nd:
                    if any(v[pos] is undef for pos in np.nonzero(M)[0]):
                        sync()
                        return self._spill(pc - 1)
                elif v is undef:
                    sync()
                    return self._spill(pc - 1)
            elif op == 29:  # LOADX
                value = regs[b]
                if type(value) is nd:
                    g = glist[c]
                    gvec = type(g) is nd
                    out = []
                    for pos in np.nonzero(M)[0]:
                        e = value[pos]
                        if e is undef:
                            e = g[pos] if gvec else g
                        out.append(e)
                    self._mputc(a, _obj_vec(out), M)
                elif value is undef:
                    self._mput(a, glist[c], M)
                else:
                    self._mput(a, value, M)
                regs = self.regs
            elif op == 30:  # STOREX
                v = regs[a]
                if type(v) is nd:
                    um = np.zeros(n, dtype=bool)
                    for pos in np.nonzero(M)[0]:
                        if v[pos] is undef:
                            um[pos] = True
                    mg = um
                    mr = M & ~um
                    if mg.any():
                        glist[b] = self._merge_value(glist[b], regs[c], mg)
                    if mr.any():
                        self._mput(a, regs[c], mr)
                elif v is undef:
                    glist[b] = self._merge_value(glist[b], regs[c], M)
                else:
                    self._mput(a, regs[c], M)
                regs = self.regs
            elif op == 35:  # NEWARR
                self._mput(a, [c] * b, M)
                regs = self.regs
            elif op == 48:  # MATHOP
                self.pend_v[M] += 4
                self.tot_v[M] += 4
                args = [regs[i] for i in c]
                if any(type(x) is nd for x in args):
                    res = self._math_vec(b, args, M)
                else:
                    try:
                        res = b(*args)
                    except (ValueError, OverflowError):
                        res = 0.0
                self._mputc(a, res, M)
                regs = self.regs
            elif op == 36:  # CALL
                callee = funcs[b]
                nregs = list(callee.proto)
                n_args = len(c)
                for i, slot in enumerate(callee.param_slots):
                    nregs[slot] = regs[c[i]] if i < n_args else 0
                stack.append((code, regs, pc, a, fc, trace))
                fc = callee
                code = callee.code
                regs = nregs
                self.regs = regs
                pc = 0
                trace = runner.hooks.wants_function_events
                if trace:
                    now = clocks.now
                    name = fc.name
                    for pos in np.nonzero(M)[0]:
                        emit(int(pos), "on_func_enter",
                             (interps[pos].rank, name, float(now[pos])))
            elif op == 38 or op == 39:  # RET / RETK
                f = frames[-1]
                if (f.code is code and f.depth == len(stack)) or not stack:
                    # Divergent return: lanes would leave the function that
                    # owns the innermost mask frame.
                    sync()
                    return self._spill(pc - 1)
                value = regs[a] if op == 38 else a
                if trace:
                    now = clocks.now
                    name = fc.name
                    for pos in np.nonzero(M)[0]:
                        emit(int(pos), "on_func_exit",
                             (interps[pos].rank, name, float(now[pos])))
                code, regs, pc, dst, fc, trace = stack.pop()
                self.regs = regs
                self._mput(dst, value, M)
                regs = self.regs
            elif op == 43:  # RANKOP
                self.pend_frac[M] += 0.1
                self.tot_frac[M] += 0.1
                self._mput(a, self.ranks_vec, M)
                regs = self.regs
            elif op == 44:  # SIZEOP
                self.pend_frac[M] += 0.1
                self.tot_frac[M] += 0.1
                self._mput(a, interps[0].n_ranks, M)
                regs = self.regs
            elif op == 50:  # RANDOP
                self.pend_v[M] += 1
                self.tot_v[M] += 1
                draws = [
                    int(interps[pos]._rng.integers(0, 2**31 - 1))
                    for pos in np.nonzero(M)[0]
                ]
                self._mputc(a, _obj_vec(draws), M)
                regs = self.regs
            elif op == 53:  # HOSTOP
                self.pend_v[M] += 1
                self.tot_v[M] += 1
                self._mput(a, self.node_val, M)
                regs = self.regs
            elif op == 55:  # RESFP
                slot, gidx = b
                self._mputc(a, self._resfp(slot, gidx, M), M)
                regs = self.regs
            else:
                # Observation, MPI, IO, extern and indirect-call ops need the
                # full batch: drain every lane.
                sync()
                return self._spill(pc - 1)

    # -- spill / finish ------------------------------------------------------

    def _spill(self, cur_pc: int, blocked: dict | None = None) -> None:
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

    def spill_blocked(self) -> None:
        """Drain a blocked batch (rendezvous stall: partial delivery)."""
        block = self.block
        self.block = None
        self._spill(self.pc, blocked=block)

    def _finish(self) -> None:
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
