"""AST interpreter for one simulated MPI rank.

Each rank runs the (possibly instrumented) program against its own virtual
clock.  Computation charges abstract work units which are converted to time
lazily at observation boundaries (probes, MPI, IO); MPI operations suspend
the rank by yielding an :class:`MpiRequest` to the engine, which resumes it
with the operation's completion time.

Performance notes (this is the simulator's hot loop):

* statements whose subtree contains no call execute through a plain
  recursive fast path — compute kernels never touch the generator machinery;
* expression/statement call-sites are classified once per program and
  memoized by node id;
* intrinsics (math, ``compute_units``, probes, IO) run inline; only MPI
  rendezvous and user-function calls go through ``yield``.

Work accounting is split into an integer count of half work units plus a
float residual for charges that are not multiples of 0.5 (``MPI_Comm_rank``'s
0.1, data-dependent extern costs).  Integer accumulation is exact and
associative, so the bytecode tier (:mod:`repro.sim.bytecode`) may fold the
constant charges of a whole basic block into one addition and still produce
bit-identical virtual times; the residual stream is charged in program
order by both tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InterpError
from repro.frontend import ast_nodes as A
from repro.instrument.rewrite import TICK, TOCK
from repro.sensors.estimate import (
    COST_BINOP,
    COST_BRANCH,
    COST_CALL,
    COST_INDEX,
    COST_LOAD,
    COST_STORE,
    COST_UNARY,
)
from repro.sim.clock import RankClock
from repro.sim.faults import Fault, io_factor_at
from repro.sim.hooks import RuntimeHooks
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkModel
from repro.sim.noise import NodeNoise
from repro.sim.pmu import Pmu

_MPI_COLLECTIVES = {
    "MPI_Barrier": "barrier",
    "MPI_Allreduce": "allreduce",
    "MPI_Alltoall": "alltoall",
    "MPI_Allgather": "allgather",
    "MPI_Bcast": "bcast",
    "MPI_Reduce": "reduce",
}

_MPI_P2P = {"MPI_Send": "send", "MPI_Recv": "recv", "MPI_Sendrecv": "sendrecv"}

_MATH_FUNCS = {
    "sqrt": lambda a: math.sqrt(abs(a)),
    "fabs": abs,
    "abs": abs,
    "exp": lambda a: math.exp(min(a, 60.0)),
    "log": lambda a: math.log(abs(a) + 1e-12),
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": lambda a, b: math.pow(abs(a) + 1e-12, b),
    "fmod": lambda a, b: math.fmod(a, b if b != 0 else 1.0),
    "min": min,
    "max": max,
}

#: the entries of ``_MATH_FUNCS`` that take two arguments (the rest take one)
_MATH_TWO_ARG = frozenset(("pow", "fmod", "min", "max"))


@dataclass(slots=True)
class MpiRequest:
    """A blocked MPI operation, yielded to the engine."""

    rank: int
    op: str            # "barrier"|"allreduce"|...|"send"|"recv"|"sendrecv"
    size: float
    peer: int          # dest/src/root; -1 when not applicable
    arrive: float      # local time the rank entered the operation


class _Return(Exception):
    """Unwinds a user function call."""

    def __init__(self, value) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class RankInterp:
    """Interpreter state for one rank."""

    def __init__(
        self,
        module: A.Module,
        rank: int,
        n_ranks: int,
        machine: MachineConfig,
        faults: tuple[Fault, ...],
        hooks: RuntimeHooks,
        shared_has_call: dict[int, bool] | None = None,
        externs=None,
        probe_control=None,
    ) -> None:
        self.module = module
        #: optional governor control table; ``None`` keeps probes unconditional
        self.probe_control = probe_control
        self.rank = rank
        self.n_ranks = n_ranks
        self.machine = machine
        self.faults = faults
        self.hooks = hooks
        node = machine.node_of_rank(rank)
        self.clock = RankClock(
            rank=rank,
            node=node,
            noise=NodeNoise(machine.noise, machine.seed, node.node_id),
            machine=machine,
            faults=faults,
        )
        self.network = NetworkModel(machine=machine, faults=faults)
        self.pmu = Pmu(machine.seed, rank, faults, node.node_id)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([machine.seed & 0x7FFFFFFF, 31_000 + rank])
        )
        self.globals: dict[str, object] = {}
        self._frames: list[dict[str, object]] = []
        # Work accounting: integer half-units (exact, grouping-invariant)
        # plus a float residual charged in program order.
        self._pending_half = 0
        self._pending_frac = 0.0
        self._total_half = 0
        self._total_frac = 0.0
        #: open Tick records: sensor id -> (t_start, half units, residual)
        self._open_ticks: dict[int, tuple[float, int, float]] = {}
        self.sensor_record_count = 0
        self._has_call_memo = shared_has_call if shared_has_call is not None else {}
        self._functions = {fn.name: fn for fn in module.functions}
        if externs is None:
            from repro.sensors.extern import default_extern_registry

            externs = default_extern_registry()
        self._externs = externs

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def run(self):
        """Generator: yields MpiRequest; receives completion times."""
        self._init_globals()
        main = self._functions.get(A.ENTRY)
        if main is None:
            raise InterpError(f"no entry function {A.ENTRY!r}")
        try:
            yield from self._call_function(main, [])
        except _Return:
            pass
        self._flush()
        self.hooks.on_program_end(self.rank, self.clock.now)

    def _init_globals(self) -> None:
        for gv in self.module.globals:
            if gv.array_size is not None:
                self.globals[gv.name] = [0.0 if gv.var_type == "float" else 0] * gv.array_size
            elif gv.init is not None:
                self.globals[gv.name] = self._eval_fast(gv.init)
            else:
                self.globals[gv.name] = 0.0 if gv.var_type == "float" else 0

    # ------------------------------------------------------------------
    # Time bookkeeping
    # ------------------------------------------------------------------

    @property
    def total_work(self) -> float:
        return self._total_half * 0.5 + self._total_frac

    def _flush(self) -> None:
        """Convert pending work units into elapsed virtual time."""
        if self._pending_half or self._pending_frac:
            amount = self._pending_half * 0.5 + self._pending_frac
            if amount > 0.0:
                self.clock.advance_compute(amount)
            self._pending_half = 0
            self._pending_frac = 0.0

    def _charge(self, units: float) -> None:
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            n = int(doubled)
            self._pending_half += n
            self._total_half += n
        else:
            self._pending_frac += units
            self._total_frac += units

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    @property
    def _frame(self) -> dict[str, object]:
        return self._frames[-1]

    def _read_var(self, name: str):
        frame = self._frames[-1]
        if name in frame:
            return frame[name]
        if name in self.globals:
            return self.globals[name]
        raise InterpError(f"rank {self.rank}: read of undefined variable {name!r}")

    def _write_var(self, name: str, value) -> None:
        frame = self._frames[-1]
        if name in frame:
            frame[name] = value
        elif name in self.globals:
            self.globals[name] = value
        else:
            frame[name] = value

    def _read_elem(self, name: str, index):
        arr = self._read_var(name)
        if not isinstance(arr, list):
            raise InterpError(f"{name!r} is not an array")
        return arr[int(index) % len(arr)]

    def _write_elem(self, name: str, index, value) -> None:
        arr = self._read_var(name)
        if not isinstance(arr, list):
            raise InterpError(f"{name!r} is not an array")
        arr[int(index) % len(arr)] = value

    # ------------------------------------------------------------------
    # Call classification
    # ------------------------------------------------------------------

    def _has_call(self, node: A.Node) -> bool:
        memo = self._has_call_memo
        cached = memo.get(node.node_id)
        if cached is not None:
            return cached
        result = False
        if isinstance(node, A.CallExpr):
            result = True
        elif isinstance(node, A.Stmt):
            for expr in A.walk_all_exprs(node):
                if isinstance(expr, A.CallExpr):
                    result = True
                    break
        else:
            for expr in A.walk_exprs(node):
                if isinstance(expr, A.CallExpr):
                    result = True
                    break
        memo[node.node_id] = result
        return result

    # ------------------------------------------------------------------
    # Fast (call-free) execution
    # ------------------------------------------------------------------

    def _eval_fast(self, expr: A.Expr):
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.FloatLit):
            return expr.value
        if isinstance(expr, A.StringLit):
            return expr.value
        if isinstance(expr, A.VarRef):
            self._charge(COST_LOAD)
            return self._read_var(expr.name)
        if isinstance(expr, A.ArrayRef):
            index = self._eval_fast(expr.index)
            self._charge(COST_LOAD + COST_INDEX)
            return self._read_elem(expr.name, index)
        if isinstance(expr, A.BinOp):
            left = self._eval_fast(expr.left)
            right = self._eval_fast(expr.right)
            self._charge(COST_BINOP)
            return _binop(expr.op, left, right)
        if isinstance(expr, A.UnaryOp):
            value = self._eval_fast(expr.operand)
            self._charge(COST_UNARY)
            return -value if expr.op == "-" else (0 if value else 1)
        if isinstance(expr, A.AddrOf):
            return expr.func_name
        raise InterpError(f"fast path cannot evaluate {type(expr).__name__}")

    def _exec_fast(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                self._exec_fast(child)
            return
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                self._frame[stmt.name] = [0.0 if stmt.var_type == "float" else 0] * stmt.array_size
            else:
                self._frame[stmt.name] = (
                    self._eval_fast(stmt.init) if stmt.init is not None else 0
                )
            self._charge(COST_STORE)
            return
        if isinstance(stmt, A.Assign):
            value = self._eval_fast(stmt.value)
            target = stmt.target
            self._charge(COST_STORE)
            if isinstance(target, A.VarRef):
                self._write_var(target.name, value)
            else:
                index = self._eval_fast(target.index)
                self._write_elem(target.name, index, value)
            return
        if isinstance(stmt, A.IfStmt):
            self._charge(COST_BRANCH)
            if _truthy(self._eval_fast(stmt.cond)):
                self._exec_fast(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec_fast(stmt.else_body)
            return
        if isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                self._exec_fast(stmt.init)
            while True:
                self._charge(COST_BRANCH)
                if stmt.cond is not None and not _truthy(self._eval_fast(stmt.cond)):
                    break
                try:
                    self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self._exec_fast(stmt.step)
            return
        if isinstance(stmt, A.WhileStmt):
            while True:
                self._charge(COST_BRANCH)
                if not _truthy(self._eval_fast(stmt.cond)):
                    break
                try:
                    self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
            return
        if isinstance(stmt, A.ReturnStmt):
            value = self._eval_fast(stmt.value) if stmt.value is not None else None
            raise _Return(value)
        if isinstance(stmt, A.BreakStmt):
            raise _Break()
        if isinstance(stmt, A.ContinueStmt):
            raise _Continue()
        if isinstance(stmt, A.ExprStmt):
            self._eval_fast(stmt.expr)
            return
        raise InterpError(f"fast path cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # General (call-capable) execution — generators
    # ------------------------------------------------------------------

    def _exec(self, stmt: A.Stmt):
        if not self._has_call(stmt):
            self._exec_fast(stmt)
            return
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                if self._has_call(child):
                    yield from self._exec(child)
                else:
                    self._exec_fast(child)
            return
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                self._frame[stmt.name] = [0.0 if stmt.var_type == "float" else 0] * stmt.array_size
            else:
                value = 0
                if stmt.init is not None:
                    value = yield from self._eval(stmt.init)
                self._frame[stmt.name] = value
            self._charge(COST_STORE)
            return
        if isinstance(stmt, A.Assign):
            value = yield from self._eval(stmt.value)
            target = stmt.target
            self._charge(COST_STORE)
            if isinstance(target, A.VarRef):
                self._write_var(target.name, value)
            else:
                index = yield from self._eval(target.index)
                self._write_elem(target.name, index, value)
            return
        if isinstance(stmt, A.IfStmt):
            self._charge(COST_BRANCH)
            cond = yield from self._eval(stmt.cond)
            if _truthy(cond):
                yield from self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                yield from self._exec(stmt.else_body)
            return
        if isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                yield from self._exec(stmt.init)
            body_has_call = self._has_call(stmt.body) if stmt.body is not None else False
            while True:
                self._charge(COST_BRANCH)
                if stmt.cond is not None:
                    cond = yield from self._eval(stmt.cond)
                    if not _truthy(cond):
                        break
                try:
                    if body_has_call:
                        yield from self._exec(stmt.body)
                    else:
                        self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    yield from self._exec(stmt.step)
            return
        if isinstance(stmt, A.WhileStmt):
            body_has_call = self._has_call(stmt.body) if stmt.body is not None else False
            while True:
                self._charge(COST_BRANCH)
                cond = yield from self._eval(stmt.cond)
                if not _truthy(cond):
                    break
                try:
                    if body_has_call:
                        yield from self._exec(stmt.body)
                    else:
                        self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
            return
        if isinstance(stmt, A.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = yield from self._eval(stmt.value)
            raise _Return(value)
        if isinstance(stmt, A.ExprStmt):
            yield from self._eval(stmt.expr)
            return
        raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _eval(self, expr: A.Expr):
        if not self._has_call(expr):
            return self._eval_fast(expr)
        if isinstance(expr, A.BinOp):
            left = yield from self._eval(expr.left)
            right = yield from self._eval(expr.right)
            self._charge(COST_BINOP)
            return _binop(expr.op, left, right)
        if isinstance(expr, A.UnaryOp):
            value = yield from self._eval(expr.operand)
            self._charge(COST_UNARY)
            return -value if expr.op == "-" else (0 if value else 1)
        if isinstance(expr, A.ArrayRef):
            index = yield from self._eval(expr.index)
            self._charge(COST_LOAD + COST_INDEX)
            return self._read_elem(expr.name, index)
        if isinstance(expr, A.CallExpr):
            result = yield from self._eval_call(expr)
            return result
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _eval_call(self, expr: A.CallExpr):
        name = expr.callee
        # Indirect call through a funcptr variable holding a function name.
        if name not in self._functions and name not in _INTRINSIC_NAMES:
            frame = self._frames[-1] if self._frames else {}
            if name in frame or name in self.globals:
                target = self._read_var(name)
                if isinstance(target, str) and target in self._functions:
                    name = target
        args = []
        for arg in expr.args:
            value = yield from self._eval(arg)
            args.append(value)
        self._charge(COST_CALL)

        fn = self._functions.get(name)
        if fn is not None:
            result = yield from self._call_function(fn, args)
            return result
        result = yield from self._intrinsic(name, args, expr)
        return result

    def _call_function(self, fn: A.FunctionDef, args: list):
        frame: dict[str, object] = {}
        for i, param in enumerate(fn.params):
            frame[param.name] = args[i] if i < len(args) else 0
        self._frames.append(frame)
        trace = self.hooks.wants_function_events
        if trace:
            self.hooks.on_func_enter(self.rank, fn.name, self.clock.now)
        try:
            if fn.body is not None:
                if self._has_call(fn.body):
                    yield from self._exec(fn.body)
                else:
                    self._exec_fast(fn.body)
            return 0
        except _Return as ret:
            return ret.value if ret.value is not None else 0
        finally:
            self._frames.pop()
            if trace:
                self.hooks.on_func_exit(self.rank, fn.name, self.clock.now)

    # ------------------------------------------------------------------
    # Intrinsics
    # ------------------------------------------------------------------

    def _intrinsic(self, name: str, args: list, expr: A.CallExpr):
        if name == "compute_units":
            self._charge(max(0.0, float(args[0])) if args else 0.0)
            return 0
        if name == TICK:
            self._probe_tick(int(args[0]))
            return 0
        if name == TOCK:
            self._probe_tock(int(args[0]))
            return 0
        if name == "MPI_Comm_rank":
            self._charge(0.1)
            return self.rank
        if name == "MPI_Comm_size":
            self._charge(0.1)
            return self.n_ranks
        if name == "MPI_Wtime":
            self._flush()
            return self.clock.now
        if name in _MPI_COLLECTIVES:
            result = yield from self._mpi_collective(name, args)
            return result
        if name in _MPI_P2P:
            result = yield from self._mpi_p2p(name, args)
            return result
        if name in _MATH_FUNCS:
            self._charge(2.0)
            try:
                return _MATH_FUNCS[name](*args[: 2 if name in _MATH_TWO_ARG else 1])
            except (ValueError, OverflowError):
                return 0.0
        if name == "printf":
            self._io_op("printf", 1.0)
            return 0
        if name in ("fread", "fwrite"):
            size = float(args[0]) if args else 1.0
            self._io_op(name, size)
            return 0
        if name in ("fopen", "fclose"):
            self._io_op(name, 1.0)
            return 0
        if name == "rand":
            self._charge(0.5)
            return int(self._rng.integers(0, 2**31 - 1))
        if name == "srand":
            return 0
        if name == "clock":
            self._flush()
            return int(self.clock.now)
        if name == "gethostname":
            self._charge(0.5)
            return self.clock.node.node_id
        model = self._externs.lookup(name)
        if model is not None:
            self._extern_call(name, model, args)
            return 0
        raise InterpError(f"rank {self.rank}: call to unknown function {name!r}")
        yield  # pragma: no cover - makes this a generator

    def _extern_call(self, name: str, model, args) -> None:
        """A user-described external function, costed from its model: a
        ``net`` call stretches wall time, an ``io`` call is an IO op, and
        anything else charges work units."""
        units = model.units(args)
        if model.category == "net":
            self._flush()
            t0 = self.clock.now
            self.clock.advance_wall(model.cost(units) * self.network.stretch_at(t0))
            self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, units)
        elif model.category == "io":
            self._io_op(name, units)
        else:
            self._charge(model.cost(units))

    # ------------------------------------------------------------------
    # Probes (the instrumented Tick/Tock runtime entry, §4/§5)
    # ------------------------------------------------------------------

    def _probe_tick(self, sensor_id: int) -> None:
        ctl = self.probe_control
        if ctl is not None and not ctl.decide(self.rank, sensor_id):
            # Governor says skip: charge only the table check, open nothing.
            # The decision is latched here; the matching tock pops it.
            self._charge(ctl.check_cost)
            return
        self._charge(self.machine.probe_cost)
        self._flush()
        self._open_ticks[sensor_id] = (self.clock.now, self._total_half, self._total_frac)

    def _probe_tock(self, sensor_id: int) -> None:
        ctl = self.probe_control
        if ctl is not None and ctl.pop_skip(self.rank, sensor_id):
            self._charge(ctl.check_cost)
            return
        self._flush()
        open_entry = self._open_ticks.pop(sensor_id, None)
        self._charge(self.machine.probe_cost)
        if open_entry is None:
            raise InterpError(f"vs_tock({sensor_id}) without matching vs_tick")
        t_start, half_at_tick, frac_at_tick = open_entry
        true_work = (self._total_half - half_at_tick) * 0.5 + (
            self._total_frac - frac_at_tick
        )
        sample = self.pmu.read(true_work, self.clock.now)
        self.sensor_record_count += 1
        self.hooks.on_sensor_record(self.rank, sensor_id, t_start, self.clock.now, sample)

    # ------------------------------------------------------------------
    # MPI + IO
    # ------------------------------------------------------------------

    def _mpi_collective(self, name: str, args: list):
        op = _MPI_COLLECTIVES[name]
        if op in ("barrier",):
            size = 0.0
        elif op in ("bcast", "reduce"):
            size = float(args[1]) if len(args) > 1 else 0.0
        else:
            size = float(args[0]) if args else 0.0
        self._flush()
        t0 = self.clock.now
        self.hooks.on_mpi_begin(self.rank, name, t0)
        completion = yield MpiRequest(rank=self.rank, op=op, size=size, peer=-1, arrive=t0)
        self.clock.wait_until(completion)
        self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, size)
        return 0

    def _mpi_p2p(self, name: str, args: list):
        peer = int(args[0]) if args else 0
        size = float(args[1]) if len(args) > 1 else 0.0
        op = _MPI_P2P[name]
        self._flush()
        t0 = self.clock.now
        self.hooks.on_mpi_begin(self.rank, name, t0)
        completion = yield MpiRequest(
            rank=self.rank, op=op, size=size, peer=peer % max(1, self.n_ranks), arrive=t0
        )
        self.clock.wait_until(completion)
        self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, size)
        return 0

    def _io_op(self, op: str, size: float) -> None:
        self._flush()
        t0 = self.clock.now
        self.clock.advance_wall(self.io_cost(size, t0))
        self.hooks.on_io(self.rank, op, t0, self.clock.now, size)

    def io_cost(self, size: float, t0: float) -> float:
        """Wall time of an IO op of ``size`` started at ``t0`` on this
        rank's node (every tier charges IO through this)."""
        machine = self.machine
        factor = io_factor_at(self.faults, self.clock.node.node_id, t0)
        return (machine.io_alpha + machine.io_beta * size) / max(factor, 1e-6)


_INTRINSIC_NAMES = frozenset(
    list(_MPI_COLLECTIVES)
    + list(_MPI_P2P)
    + list(_MATH_FUNCS)
    + [
        "MPI_Comm_rank",
        "MPI_Comm_size",
        "MPI_Wtime",
        "compute_units",
        TICK,
        TOCK,
        "printf",
        "fread",
        "fwrite",
        "fopen",
        "fclose",
        "rand",
        "srand",
        "clock",
        "gethostname",
    ]
)


def _truthy(value) -> bool:
    return bool(value)


def _binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return 0
        if isinstance(left, int) and isinstance(right, int):
            return left // right if (left >= 0) == (right >= 0) else -((-left) // right)
        return left / right
    if op == "%":
        return left % right if right != 0 else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "&&":
        return 1 if (left and right) else 0
    if op == "||":
        return 1 if (left or right) else 0
    raise InterpError(f"unknown operator {op!r}")
