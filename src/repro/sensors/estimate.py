"""Compile-time workload estimation for snippet granularity (§4).

The paper's granularity rule ("only v-sensors with depth < max-depth")
is explicitly called *an estimation* of snippet cost.  This module makes
the estimation concrete: it computes a static work estimate per snippet
from loop trip counts and call costs, so the instrumenter can skip
snippets that are predictably too small to be worth probing (runtime
shutoff, §5.3, still covers what the estimate cannot see).

The estimator is best-effort and never wrong in a harmful direction:
``None`` (unknown) is returned whenever a bound, argument or callee
resists constant evaluation, and the caller treats unknown as "keep".

Estimation rules:

* a for-loop ``for (i = c0; i < c1; i = i + c2)`` with constant chain has
  trip count ``ceil((c1 - c0) / c2)``; other loops are unknown;
* statement costs are the simulator's charge table (``COST_*`` below);
* ``compute_units(c)`` costs ``c``; described externs cost
  ``base + unit * workload args`` when those are constants;
* a call to a defined function costs that function's estimate
  (memoized; recursion yields unknown).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as A
from repro.sensors.extern import ExternRegistry, default_extern_registry

# Work-unit costs of interpreted operations: the simulator's charge table.
# It lives here, below ``repro.sim`` in the import order, so that the static
# estimate and both interpreter tiers (``sim.interp``, ``sim.bytecode.compiler``)
# charge from one definition.
COST_BINOP = 1.0
COST_UNARY = 0.5
COST_LOAD = 0.5
COST_STORE = 0.5
COST_INDEX = 0.5
COST_CALL = 2.0
COST_BRANCH = 0.5


@dataclass(slots=True)
class WorkloadEstimator:
    """Static per-snippet work estimates for one module."""

    module: A.Module
    externs: ExternRegistry = field(default_factory=default_extern_registry)
    _function_memo: dict[str, float | None] = field(default_factory=dict)
    _active: set[str] = field(default_factory=set)

    def estimate_snippet(self, node: A.Node) -> float | None:
        """Estimated work units of one loop or call snippet execution."""
        if isinstance(node, A.Stmt):
            return self._stmt_cost(node)
        if isinstance(node, A.CallExpr):
            return self._expr_cost(node)
        return None

    def estimate_function(self, name: str) -> float | None:
        """Estimated work of one invocation of a defined function."""
        if name in self._function_memo:
            return self._function_memo[name]
        if name in self._active:
            return None  # recursion: unknown
        try:
            fn = self.module.function(name)
        except KeyError:
            return None
        self._active.add(name)
        try:
            cost = self._stmt_cost(fn.body) if fn.body is not None else 0.0
        finally:
            self._active.discard(name)
        self._function_memo[name] = cost
        return cost

    # -- statements ----------------------------------------------------------

    def _stmt_cost(self, stmt: A.Stmt | None) -> float | None:
        if stmt is None:
            return 0.0
        if isinstance(stmt, A.Block):
            return self._sum(self._stmt_cost(s) for s in stmt.stmts)
        if isinstance(stmt, A.VarDecl):
            init = self._expr_cost(stmt.init) if stmt.init is not None else 0.0
            return _add(init, COST_STORE)
        if isinstance(stmt, A.Assign):
            target_cost = 0.0
            if isinstance(stmt.target, A.ArrayRef):
                target_cost = _add(self._expr_cost(stmt.target.index), COST_INDEX)
            return self._sum([self._expr_cost(stmt.value), target_cost, COST_STORE])
        if isinstance(stmt, A.IfStmt):
            cond = self._expr_cost(stmt.cond)
            then_cost = self._stmt_cost(stmt.then_body)
            else_cost = self._stmt_cost(stmt.else_body) if stmt.else_body else 0.0
            if then_cost is None or else_cost is None or cond is None:
                return None
            # Take the mean of the branches: an estimate, not a bound.
            return cond + COST_BRANCH + 0.5 * (then_cost + else_cost)
        if isinstance(stmt, A.ForStmt):
            trips = self.trip_count(stmt)
            if trips is None:
                return None
            per_iter = self._sum(
                [
                    self._expr_cost(stmt.cond) if stmt.cond is not None else 0.0,
                    COST_BRANCH,
                    self._stmt_cost(stmt.body),
                    self._stmt_cost(stmt.step) if stmt.step is not None else 0.0,
                ]
            )
            init = self._stmt_cost(stmt.init) if stmt.init is not None else 0.0
            if per_iter is None or init is None:
                return None
            return init + trips * per_iter
        if isinstance(stmt, A.WhileStmt):
            return None  # trip count unknowable statically here
        if isinstance(stmt, A.ReturnStmt):
            return self._expr_cost(stmt.value) if stmt.value is not None else 0.0
        if isinstance(stmt, (A.BreakStmt, A.ContinueStmt)):
            return 0.0
        if isinstance(stmt, A.ExprStmt):
            return self._expr_cost(stmt.expr)
        return None

    # -- expressions ------------------------------------------------------------

    def _expr_cost(self, expr: A.Expr | None) -> float | None:
        if expr is None:
            return 0.0
        if isinstance(expr, (A.IntLit, A.FloatLit, A.StringLit, A.AddrOf)):
            return 0.0
        if isinstance(expr, A.VarRef):
            return COST_LOAD
        if isinstance(expr, A.ArrayRef):
            return _add(self._expr_cost(expr.index), COST_LOAD + COST_INDEX)
        if isinstance(expr, A.BinOp):
            return self._sum([self._expr_cost(expr.left), self._expr_cost(expr.right), COST_BINOP])
        if isinstance(expr, A.UnaryOp):
            return _add(self._expr_cost(expr.operand), COST_UNARY)
        if isinstance(expr, A.CallExpr):
            args_cost = self._sum(self._expr_cost(a) for a in expr.args)
            if args_cost is None:
                return None
            return _add(self._call_cost(expr), args_cost + COST_CALL)
        return None

    def _call_cost(self, call: A.CallExpr) -> float | None:
        if self.module.has_function(call.callee):
            return self.estimate_function(call.callee)
        model = self.externs.lookup(call.callee)
        if model is None:
            return None
        units = 1.0
        for idx in model.workload_args:
            if idx >= len(call.args):
                return None
            value = const_value(call.args[idx])
            if value is None:
                return None
            units *= max(0.0, float(value))
        return model.cost(units)

    # -- loop trip counts ----------------------------------------------------------

    def trip_count(self, loop: A.ForStmt) -> float | None:
        """Trip count of a canonical counted loop, else None."""
        if loop.init is None or loop.cond is None or loop.step is None:
            return None
        # init: i = c0
        if not (isinstance(loop.init, A.Assign) and isinstance(loop.init.target, A.VarRef)):
            return None
        var = loop.init.target.name
        c0 = const_value(loop.init.value)
        # cond: i < c1  or  i <= c1
        cond = loop.cond
        if not (
            isinstance(cond, A.BinOp)
            and cond.op in ("<", "<=")
            and isinstance(cond.left, A.VarRef)
            and cond.left.name == var
        ):
            return None
        c1 = const_value(cond.right)
        # step: i = i + c2
        step = loop.step
        if not (
            isinstance(step, A.Assign)
            and isinstance(step.target, A.VarRef)
            and step.target.name == var
            and isinstance(step.value, A.BinOp)
            and step.value.op == "+"
            and isinstance(step.value.left, A.VarRef)
            and step.value.left.name == var
        ):
            return None
        c2 = const_value(step.value.right)
        if c0 is None or c1 is None or c2 is None or c2 <= 0:
            return None
        span = c1 - c0 + (1 if cond.op == "<=" else 0)
        if span <= 0:
            return 0.0
        return float(-(-int(span) // int(c2))) if float(c2).is_integer() else span / c2

    # -- helpers -------------------------------------------------------------------

    def _sum(self, parts) -> float | None:
        total = 0.0
        for part in parts:
            if part is None:
                return None
            total += part
        return total


def _add(a: float | None, b: float) -> float | None:
    return None if a is None else a + b


def const_value(expr: A.Expr | None):
    """Constant-fold a pure expression of literals; None when not constant.

    Handles the arithmetic subset that appears in loop headers and call
    arguments after macro-style source generation (e.g. ``8192``,
    ``2 * 16``, ``-(4)``).  Reads of variables are not folded — that is the
    dependency analysis' job, and the estimator must stay conservative.
    """
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.FloatLit):
        return expr.value
    if isinstance(expr, A.UnaryOp) and expr.op == "-":
        inner = const_value(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, A.BinOp):
        left = const_value(expr.left)
        right = const_value(expr.right)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left // right if isinstance(left, int) and isinstance(right, int) else left / right
            if expr.op == "%":
                return left % right
        except ZeroDivisionError:
            return None
    return None
