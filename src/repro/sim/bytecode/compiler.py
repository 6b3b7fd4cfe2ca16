"""AST → register bytecode lowering.

One :func:`compile_module` call per program; the result is immutable and
shared by every rank VM.  The compiler mirrors the AST interpreter's
semantics *exactly* — including its quirks (dynamic local creation on
first write, globals shadowed only once the shadowing ``VarDecl`` has
executed, ``int`` default initializers even for ``float`` scalars) — so
that the two tiers stay bit-identical.

Lowering decisions:

* **Name resolution.**  Locals get frame slots; globals get indices into
  the per-rank globals list.  A name that is both a global and declared
  local somewhere in the function is *mixed*: its slot starts as the
  ``UNDEF`` sentinel and ``LOADX``/``STOREX`` fall back to the global
  while the slot is undefined — reproducing the AST tier's
  frame-then-globals lookup without a dict.
* **Definite assignment.**  A conservative forward walk decides which
  local reads can skip the ``CHKDEF`` undefined-variable check (params
  and anything assigned on every path so far; branch results intersect,
  loop bodies don't leak, ``continue`` edges join into the for-step).
* **Charge folding.**  Work-unit costs (all integer multiples of 0.5),
  and ``compute_units`` of a literal whose doubled value is an exact
  integer, accumulate in an integer half-unit counter and are emitted as
  one ``CHARGE`` per straight-line span.  :meth:`_FuncCompiler.emit` ends
  the span before every op in
  :data:`~repro.sim.bytecode.dispatch.LANDS_CHARGES` (jumps, calls,
  returns and every op that reads or hands off the counters) and
  :meth:`_FuncCompiler.bind` ends it at labels.  Exact integer
  accumulation makes the grouping invisible in the float result (see the
  accounting note in :mod:`repro.sim.interp`).
* **Peepholes.**  compare(+CHARGE)+branch fuses into the ``J??_F`` family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.sim.bytecode import ops
from repro.sim.bytecode.dispatch import LANDS_CHARGES
from repro.sim.bytecode.render import block_leaders, render_core
from repro.sim.interp import (
    _INTRINSIC_NAMES,
    _MATH_FUNCS,
    _MPI_COLLECTIVES,
    _MPI_P2P,
    _binop,
)


@dataclass(frozen=True, slots=True)
class FuncCode:
    """Read-only compiled form of one function."""

    name: str
    code: tuple
    #: register prototype, copied per call: [UNDEF]*n_locals + [0]*n_temps + consts
    proto: tuple
    param_slots: tuple
    n_locals: int
    local_names: tuple
    #: pc -> source name, consulted only on error paths and by the disassembler
    names: dict
    #: pc of a structured conditional jump -> ("if" | "loop", merge_pc, head_pc)
    #: — the reconvergence metadata the lockstep tier's mask frames run on.
    #: ``head_pc`` is -1 for ifs; for loops it is the loop-header pc.
    cf: dict
    #: first constant register: ``proto[const_base:]`` are the literals of
    #: the source, and no instruction writes a register from here up
    const_base: int
    #: pcs the scalar core can be entered at (``render.block_leaders``)
    leaders: frozenset


@dataclass(frozen=True, slots=True)
class ProgramCode:
    """A compiled module: shared, read-only, one per program."""

    funcs: tuple
    func_index: dict
    global_names: tuple
    global_index: dict
    #: the module's globals in declaration order (AST nodes, for per-rank init)
    global_decls: tuple
    _core: object = field(default=None, init=False, repr=False, compare=False)

    def core(self):
        """The scalar tier's generator function ``core(interp, state)`` for
        this program, rendered at first dispatch (a lockstep run that never
        drains a lane never pays for it) and freed with the program."""
        if self._core is None:
            object.__setattr__(self, "_core", render_core(self))
        return self._core


_MATH_TWO_ARG = frozenset(("pow", "fmod", "min", "max"))

_CMP_TO_FUSED = {
    ops.LT: ops.JLT_F,
    ops.LE: ops.JLE_F,
    ops.GT: ops.JGT_F,
    ops.GE: ops.JGE_F,
    ops.EQ: ops.JEQ_F,
    ops.NE: ops.JNE_F,
}

_BINOP_OPS = {
    "+": ops.ADD,
    "-": ops.SUB,
    "*": ops.MUL,
    "/": ops.DIV,
    "%": ops.MOD,
    "<": ops.LT,
    "<=": ops.LE,
    ">": ops.GT,
    ">=": ops.GE,
    "==": ops.EQ,
    "!=": ops.NE,
    "&&": ops.ANDL,
    "||": ops.ORL,
}


def compile_module(module: A.Module, externs) -> ProgramCode:
    """Lower every function of ``module``; ``externs`` is an ExternRegistry."""
    global_index = {gv.name: i for i, gv in enumerate(module.globals)}
    func_names = {fn.name for fn in module.functions}
    func_order = {fn.name: i for i, fn in enumerate(module.functions)}
    funcs = tuple(
        _FuncCompiler(fn, global_index, func_names, func_order, externs).compile()
        for fn in module.functions
    )
    return ProgramCode(
        funcs=funcs,
        func_index=dict(func_order),
        global_names=tuple(global_index),
        global_index=global_index,
        global_decls=tuple(module.globals),
    )


class _Label:
    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc = -1


class _FuncCompiler:
    def __init__(self, fn, global_index, func_names, func_order, externs) -> None:
        self.fn = fn
        self.global_index = global_index
        self.func_names = func_names
        self.func_order = func_order
        self.externs = externs

        params = [p.name for p in fn.params]
        declared: set[str] = set()
        referenced: set[str] = set()
        if fn.body is not None:
            for stmt in A.walk_stmts(fn.body):
                if isinstance(stmt, A.VarDecl):
                    declared.add(stmt.name)
                for expr in A.walk_exprs(stmt):
                    if isinstance(expr, (A.VarRef, A.ArrayRef)):
                        referenced.add(expr.name)
        # Mixed = shadows a global, but only once its VarDecl has executed.
        # Params always shadow (their slot is filled at call time).
        self.mixed = (declared - set(params)) & set(global_index)
        local_names = list(params)
        for name in sorted(declared | referenced):
            if name in local_names:
                continue
            if name in global_index and name not in self.mixed:
                continue
            local_names.append(name)
        self.local_names = local_names
        self.slot = {name: i for i, name in enumerate(local_names)}
        self.param_slots = tuple(self.slot[p] for p in params)

        self.out: list = []          # emitted items: lists [op,a,b,c] or _Label
        self.out_names: list = []    # parallel source names (None when n/a)
        self.out_cf: list = []       # parallel cf tags: (kind, merge, head) or None
        self.consts: dict = {}       # (typename, value) -> const idx
        self.const_values: list = []
        self.n_temps = 0
        self._tmp = 0
        self._acc = 0                # folded pending charge, half work units
        self.defined: set[str] = set(params)
        self.loops: list = []        # [continue_label, break_label, cont_defined]

    # -- emission helpers ---------------------------------------------------

    def emit(self, op, a=None, b=None, c=None, name=None) -> None:
        if op in LANDS_CHARGES:
            self.flush_charges()
        self.out.append([op, a, b, c])
        self.out_names.append(name)
        self.out_cf.append(None)

    def bind(self, label: _Label) -> None:
        self.flush_charges()
        self.out.append(label)
        self.out_names.append(None)
        self.out_cf.append(None)

    def add_cost(self, units: float) -> None:
        doubled = units * 2.0
        half = int(doubled)
        if half != doubled:  # pragma: no cover - every COST_* is a half-unit
            raise InterpError(f"non-foldable static cost {units}")
        self._acc += half

    def flush_charges(self) -> None:
        if self._acc:
            self.emit(ops.CHARGE, self._acc)
            self._acc = 0

    def _constant_half_units(self, reg) -> int | None:
        """Half units ``compute_units(reg)`` always charges when ``reg`` is
        a literal (the ``CU`` body's rule), or None: a run-time amount, one
        that takes the fractional path, or one whose conversion raises —
        the ``CU`` op then charges or raises when it executes."""
        if type(reg) is not tuple or reg[0] != "k":
            return None
        try:
            units = max(0.0, float(self.const_values[reg[1]]))
        except (TypeError, ValueError, OverflowError):
            return None
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            return int(doubled)
        return None

    def tmp(self):
        reg = ("t", self._tmp)
        self._tmp += 1
        if self._tmp > self.n_temps:
            self.n_temps = self._tmp
        return reg

    def const(self, value):
        key = (type(value).__name__, value)
        idx = self.consts.get(key)
        if idx is None:
            idx = len(self.const_values)
            self.consts[key] = idx
            self.const_values.append(value)
        return ("k", idx)

    # -- expression compilation --------------------------------------------

    def compile_expr(self, expr, dst=None):
        """Compile ``expr``; return the register holding its value.

        With ``dst`` set, the value lands in that register (used to write
        assignment results straight into the target slot; every expression
        form writes ``dst`` exactly once, as its final instruction, so the
        old value stays readable throughout evaluation).
        """
        if isinstance(expr, (A.IntLit, A.FloatLit, A.StringLit)):
            reg = self.const(expr.value)
            if dst is not None:
                self.emit(ops.MOVE, dst, reg)
                return dst
            return reg
        if isinstance(expr, A.AddrOf):
            reg = self.const(expr.func_name)
            if dst is not None:
                self.emit(ops.MOVE, dst, reg)
                return dst
            return reg
        if isinstance(expr, A.VarRef):
            self.add_cost(COST_LOAD)
            return self._read_name(expr.name, dst)
        if isinstance(expr, A.ArrayRef):
            idx = self.compile_expr(expr.index)
            self.add_cost(COST_LOAD + COST_INDEX)
            out = dst if dst is not None else self.tmp()
            arr = self._array_reg(expr.name)
            if arr is None:  # plain global array: fused form
                self.emit(ops.INDEXG, out, self.global_index[expr.name], idx, name=expr.name)
            else:
                self.emit(ops.INDEX, out, arr, idx, name=expr.name)
            return out
        if isinstance(expr, A.BinOp):
            left = self.compile_expr(expr.left)
            right = self.compile_expr(expr.right)
            self.add_cost(COST_BINOP)
            # Constant-fold literal operands (the charge above still counts).
            if (
                isinstance(left, tuple)
                and isinstance(right, tuple)
                and left[0] == "k"
                and right[0] == "k"
            ):
                folded = _binop(expr.op, self.const_values[left[1]], self.const_values[right[1]])
                reg = self.const(folded)
                if dst is not None:
                    self.emit(ops.MOVE, dst, reg)
                    return dst
                return reg
            out = dst if dst is not None else self.tmp()
            self.emit(_BINOP_OPS[expr.op], out, left, right)
            return out
        if isinstance(expr, A.UnaryOp):
            value = self.compile_expr(expr.operand)
            self.add_cost(COST_UNARY)
            out = dst if dst is not None else self.tmp()
            self.emit(ops.NEG if expr.op == "-" else ops.NOTL, out, value)
            return out
        if isinstance(expr, A.CallExpr):
            return self.compile_call(expr, dst)
        raise InterpError(f"cannot compile {type(expr).__name__}")

    def _read_name(self, name, dst):
        """Value of a variable read (the COST_LOAD is already accounted)."""
        if name in self.mixed:
            out = dst if dst is not None else self.tmp()
            self.emit(ops.LOADX, out, self.slot[name], self.global_index[name], name=name)
            return out
        slot = self.slot.get(name)
        if slot is not None:
            if name not in self.defined:
                self.emit(ops.CHKDEF, slot, name=name)
            if dst is not None:
                self.emit(ops.MOVE, dst, slot)
                return dst
            return slot
        out = dst if dst is not None else self.tmp()
        self.emit(ops.LOADG, out, self.global_index[name], name=name)
        return out

    def _array_reg(self, name):
        """Register holding the array object, or None for a plain global."""
        if name in self.mixed:
            out = self.tmp()
            self.emit(ops.LOADX, out, self.slot[name], self.global_index[name], name=name)
            return out
        slot = self.slot.get(name)
        if slot is not None:
            if name not in self.defined:
                self.emit(ops.CHKDEF, slot, name=name)
            return slot
        return None

    # -- calls --------------------------------------------------------------

    def compile_call(self, expr: A.CallExpr, dst=None, discard=False):
        name = expr.callee
        if name in self.func_names:
            args = tuple(self.compile_expr(a) for a in expr.args)
            self.add_cost(COST_CALL)
            out = dst if dst is not None else self.tmp()
            self.emit(ops.CALL, out, self.func_order[name], args, name=name)
            return out
        if name not in _INTRINSIC_NAMES:
            slot = self.slot.get(name, -1)
            gidx = self.global_index.get(name, -1)
            model = self.externs.lookup(name) if self.externs is not None else None
            if slot < 0 and gidx < 0:
                # Never a funcptr variable here: direct extern (or unknown).
                args = tuple(self.compile_expr(a) for a in expr.args)
                self.add_cost(COST_CALL)
                out = dst if dst is not None else self.tmp()
                self.emit(ops.EXTCALL, out, (name, model), args, name=name)
                return out
            # The AST tier resolves the funcptr before evaluating arguments.
            fp = self.tmp()
            self.emit(ops.RESFP, fp, (slot, gidx), name=name)
            args = tuple(self.compile_expr(a) for a in expr.args)
            self.add_cost(COST_CALL)
            out = dst if dst is not None else self.tmp()
            self.emit(ops.CALLIND, out, fp, ((name, model), args), name=name)
            return out
        args = tuple(self.compile_expr(a) for a in expr.args)
        self.add_cost(COST_CALL)
        return self._compile_intrinsic(name, args, dst, discard)

    def _const_zero(self, dst, discard):
        """Result register for intrinsics that always return 0."""
        if discard:
            return None
        reg = self.const(0)
        if dst is not None:
            self.emit(ops.MOVE, dst, reg)
            return dst
        return reg

    def _compile_intrinsic(self, name, args, dst, discard):
        def out():
            return dst if dst is not None else self.tmp()

        if name == "compute_units":
            if args:
                half = self._constant_half_units(args[0])
                if half is None:
                    self.emit(ops.CU, args[0], name=name)
                else:
                    self._acc += half
            return self._const_zero(dst, discard)
        if name == TICK or name == TOCK:
            self.emit(
                ops.TICKOP if name == TICK else ops.TOCKOP,
                args[0] if args else -1,
                name=name,
            )
            return self._const_zero(dst, discard)
        if name == "MPI_Comm_rank":
            reg = out()
            self.emit(ops.RANKOP, reg, name=name)
            return reg
        if name == "MPI_Comm_size":
            reg = out()
            self.emit(ops.SIZEOP, reg, name=name)
            return reg
        if name == "MPI_Wtime":
            reg = out()
            self.emit(ops.WTIME, reg, name=name)
            return reg
        if name in _MPI_COLLECTIVES:
            op = _MPI_COLLECTIVES[name]
            if op == "barrier":
                size = -1
            elif op in ("bcast", "reduce"):
                size = args[1] if len(args) > 1 else -1
            else:
                size = args[0] if args else -1
            reg = out()
            self.emit(ops.COLL, reg, (op, name), size, name=name)
            return reg
        if name in _MPI_P2P:
            peer = args[0] if args else -1
            size = args[1] if len(args) > 1 else -1
            reg = out()
            self.emit(ops.P2P, reg, (_MPI_P2P[name], name), (peer, size), name=name)
            return reg
        if name in _MATH_FUNCS:
            k = 2 if name in _MATH_TWO_ARG else 1
            reg = out()
            self.emit(ops.MATHOP, reg, _MATH_FUNCS[name], args[:k], name=name)
            return reg
        if name == "printf":
            reg = out()
            self.emit(ops.IOOP, reg, "printf", -1, name=name)
            return reg
        if name in ("fread", "fwrite"):
            reg = out()
            self.emit(ops.IOOP, reg, name, args[0] if args else -1, name=name)
            return reg
        if name in ("fopen", "fclose"):
            reg = out()
            self.emit(ops.IOOP, reg, name, -1, name=name)
            return reg
        if name == "rand":
            reg = out()
            self.emit(ops.RANDOP, reg, name=name)
            return reg
        if name == "srand":
            # No charge, no effect, returns 0 — lowers to nothing.
            return self._const_zero(dst, discard)
        if name == "clock":
            reg = out()
            self.emit(ops.CLOCKOP, reg, name=name)
            return reg
        if name == "gethostname":
            reg = out()
            self.emit(ops.HOSTOP, reg, name=name)
            return reg
        raise InterpError(f"unclassifiable intrinsic {name!r}")  # pragma: no cover

    # -- statements ---------------------------------------------------------

    def compile_stmt(self, stmt) -> None:
        self._tmp = 0
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                self.compile_stmt(child)
            return
        if isinstance(stmt, A.VarDecl):
            slot = self.slot[stmt.name]
            if stmt.array_size is not None:
                fill = 0.0 if stmt.var_type == "float" else 0
                self.emit(ops.NEWARR, slot, stmt.array_size, fill, name=stmt.name)
            elif stmt.init is not None:
                self.compile_expr(stmt.init, dst=slot)
            else:
                # The AST tier defaults scalars to int 0 regardless of type.
                self.emit(ops.MOVE, slot, self.const(0), name=stmt.name)
            self.add_cost(COST_STORE)
            self.defined.add(stmt.name)
            return
        if isinstance(stmt, A.Assign):
            self._compile_assign(stmt)
            return
        if isinstance(stmt, A.IfStmt):
            self.add_cost(COST_BRANCH)
            cond = self.compile_expr(stmt.cond)
            else_label, end_label = _Label(), _Label()
            self.emit_jf(
                cond,
                else_label if stmt.else_body is not None else end_label,
                cf=("if", end_label, None),
            )
            before = set(self.defined)
            self.compile_stmt(stmt.then_body)
            after_then = self.defined
            if stmt.else_body is not None:
                self.emit(ops.JUMP, end_label)
                self.bind(else_label)
                self.defined = set(before)
                self.compile_stmt(stmt.else_body)
                self.defined = after_then & self.defined
            else:
                self.defined = before & after_then
            self.bind(end_label)
            return
        if isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                self.compile_stmt(stmt.init)
            head, step_label, end = _Label(), _Label(), _Label()
            entry_defined = set(self.defined)
            self.bind(head)
            self._tmp = 0
            self.add_cost(COST_BRANCH)
            if stmt.cond is not None:
                cond = self.compile_expr(stmt.cond)
                self.emit_jf(cond, end, cf=("loop", end, head))
            self.loops.append([step_label, end, []])
            if stmt.body is not None:
                self.compile_stmt(stmt.body)
            cont_sets = self.loops.pop()[2]
            self.bind(step_label)
            for s in cont_sets:
                self.defined &= s
            if stmt.step is not None:
                self.compile_stmt(stmt.step)
            self.emit(ops.JUMP, head)
            self.bind(end)
            self.defined = entry_defined
            return
        if isinstance(stmt, A.WhileStmt):
            head, end = _Label(), _Label()
            entry_defined = set(self.defined)
            self.bind(head)
            self._tmp = 0
            self.add_cost(COST_BRANCH)
            cond = self.compile_expr(stmt.cond)
            self.emit_jf(cond, end, cf=("loop", end, head))
            self.loops.append([head, end, []])
            if stmt.body is not None:
                self.compile_stmt(stmt.body)
            self.loops.pop()
            self.emit(ops.JUMP, head)
            self.bind(end)
            self.defined = entry_defined
            return
        if isinstance(stmt, A.ReturnStmt):
            if stmt.value is not None:
                reg = self.compile_expr(stmt.value)
                self.emit(ops.RET, reg)
            else:
                self.emit(ops.RETK, 0)
            return
        if isinstance(stmt, A.BreakStmt):
            if self.loops:
                self.emit(ops.JUMP, self.loops[-1][1])
            return
        if isinstance(stmt, A.ContinueStmt):
            if self.loops:
                self.loops[-1][2].append(set(self.defined))
                self.emit(ops.JUMP, self.loops[-1][0])
            return
        if isinstance(stmt, A.ExprStmt):
            if isinstance(stmt.expr, A.CallExpr):
                self.compile_call(stmt.expr, discard=True)
            else:
                self.compile_expr(stmt.expr)
            return
        raise InterpError(f"cannot compile {type(stmt).__name__}")

    def _compile_assign(self, stmt: A.Assign) -> None:
        target = stmt.target
        if isinstance(target, A.VarRef):
            name = target.name
            if name in self.mixed:
                value = self.compile_expr(stmt.value)
                self.add_cost(COST_STORE)
                self.emit(ops.STOREX, self.slot[name], self.global_index[name], value, name=name)
                return
            slot = self.slot.get(name)
            if slot is not None:
                self.compile_expr(stmt.value, dst=slot)
                self.add_cost(COST_STORE)
                self.defined.add(name)
                return
            value = self.compile_expr(stmt.value)
            self.add_cost(COST_STORE)
            self.emit(ops.STOREG, self.global_index[name], value, name=name)
            return
        # Array element: the AST tier evaluates the value, charges the store,
        # then evaluates the index and resolves the array — keep that order.
        value = self.compile_expr(stmt.value)
        self.add_cost(COST_STORE)
        idx = self.compile_expr(target.index)
        arr = self._array_reg(target.name)
        if arr is None:
            self.emit(ops.STIDXG, self.global_index[target.name], idx, value, name=target.name)
        else:
            self.emit(ops.STIDX, arr, idx, value, name=target.name)

    def emit_jf(self, cond, label: _Label, cf=None) -> None:
        self.emit(ops.JF, cond, label)
        self.out_cf[-1] = cf

    # -- finalize -----------------------------------------------------------

    def compile(self) -> FuncCode:
        if self.fn.body is not None:
            self.compile_stmt(self.fn.body)
        self.emit(ops.RETK, 0)
        self._peephole()

        n_locals = len(self.local_names)
        const_base = n_locals + self.n_temps

        def remap(v):
            if isinstance(v, tuple):
                if len(v) == 2 and v[0] == "t" and type(v[1]) is int:
                    return n_locals + v[1]
                if len(v) == 2 and v[0] == "k" and type(v[1]) is int:
                    return const_base + v[1]
                return tuple(remap(x) for x in v)
            if isinstance(v, _Label):
                return v.pc
            return v

        # Assign pcs to the labels, then drop the markers.
        pc = 0
        for item in self.out:
            if isinstance(item, _Label):
                item.pc = pc
            else:
                pc += 1
        code = []
        names: dict[int, str] = {}
        cf: dict[int, tuple] = {}
        for item, src_name, src_cf in zip(self.out, self.out_names, self.out_cf):
            if isinstance(item, _Label):
                continue
            op, a, b, c = item
            if src_name is not None:
                names[len(code)] = src_name
            if src_cf is not None:
                kind, merge, head = src_cf
                cf[len(code)] = (kind, merge.pc, head.pc if head is not None else -1)
            code.append((op, remap(a), remap(b), remap(c)))

        from repro.sim.bytecode.vm import UNDEF

        proto = tuple([UNDEF] * n_locals + [0] * self.n_temps + list(self.const_values))
        return FuncCode(
            name=self.fn.name,
            code=tuple(code),
            proto=proto,
            param_slots=self.param_slots,
            n_locals=n_locals,
            local_names=tuple(self.local_names),
            names=names,
            cf=cf,
            const_base=const_base,
            leaders=block_leaders(code),
        )

    def _peephole(self) -> None:
        """Fuse compare+branch pairs (optionally separated by one CHARGE).

        A ``CHARGE`` between the compare and the branch commutes with the
        compare (one touches only the work accumulator, the other only
        registers), so ``CMP t / CHARGE n / JF t`` becomes
        ``CHARGE n / J??_F``.
        """
        out, out_names, out_cf = self.out, self.out_names, self.out_cf

        def is_temp(v):
            return isinstance(v, tuple) and len(v) == 2 and v[0] == "t"

        i = 0
        while i < len(out) - 1:
            cur = out[i]
            if isinstance(cur, _Label):
                i += 1
                continue
            fused = _CMP_TO_FUSED.get(cur[0])
            if fused is None or not is_temp(cur[1]):
                i += 1
                continue
            j = i + 1
            mid = out[j]
            if (
                not isinstance(mid, _Label)
                and mid[0] == ops.CHARGE
                and j + 1 < len(out)
            ):
                j += 1
            nxt = out[j]
            if not isinstance(nxt, _Label) and nxt[0] == ops.JF and nxt[1] == cur[1]:
                # The fused op replaces the JF in place, so the JF's cf tag
                # (at index j) survives untouched; only the compare's slot
                # (always untagged) is deleted.
                out[j] = [fused, cur[2], cur[3], nxt[2]]
                out_names[j] = out_names[i]
                del out[i]
                del out_names[i]
                del out_cf[i]
                continue
            i += 1
