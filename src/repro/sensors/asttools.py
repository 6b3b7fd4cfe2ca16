"""AST structure utilities used by snippet analysis.

Snippet membership ("is this definition or call part of loop L?") is decided
by AST-subtree containment: these helpers precompute subtree node-id sets,
loop ancestry chains and the nodes that can execute, per function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoweringError
from repro.frontend import ast_nodes as A


def subtree_ids(root: A.Node) -> frozenset[int]:
    """Node ids of ``root`` and everything nested below it.

    Works for statements (including nested statements and their
    expressions) and bare expressions.
    """
    ids: set[int] = set()
    if isinstance(root, A.Stmt):
        for stmt in A.walk_stmts(root):
            ids.add(stmt.node_id)
            for expr in A.walk_exprs(stmt):
                ids.add(expr.node_id)
    else:
        stack: list[A.Node] = [root]
        while stack:
            node = stack.pop()
            ids.add(node.node_id)
            stack.extend(A.child_exprs(node))
    return frozenset(ids)


@dataclass(slots=True)
class FunctionShape:
    """Precomputed structure facts for one function's AST."""

    fn: A.FunctionDef
    #: every loop statement in the function, preorder
    loops: list[A.Stmt] = field(default_factory=list)
    #: node_id -> chain of enclosing loop statements, innermost first
    enclosing: dict[int, list[A.Stmt]] = field(default_factory=dict)
    #: loop node_id -> subtree ids (for-loop subtrees include init/cond/step)
    loop_subtrees: dict[int, frozenset[int]] = field(default_factory=dict)
    #: loop node_id -> subtree ids of the per-iteration region: the loop
    #: subtree *minus* the init statement (a for-loop's init runs once, so a
    #: definition there does not vary the workload across iterations).
    loop_regions: dict[int, frozenset[int]] = field(default_factory=dict)
    #: every call expression in the function
    calls: list[A.CallExpr] = field(default_factory=list)
    #: call node_id -> subtree ids
    call_subtrees: dict[int, frozenset[int]] = field(default_factory=dict)
    #: whole-body subtree ids
    body_ids: frozenset[int] = frozenset()
    #: the nodes that can execute, in evaluation order (each after the
    #: expressions it reads): calls, ``&f``, assignments, initialized
    #: declarations, returns, and branches (``if``/loops with a condition)
    live: list[A.Node] = field(default_factory=list)
    #: node ids of the calls made through a funcptr variable
    indirect: frozenset[int] = frozenset()

    def loop_depth(self, loop: A.Stmt) -> int:
        """0 for an out-most loop, 1 for its direct subloops, ..."""
        return len(self.enclosing.get(loop.node_id, []))

    def live_calls(self, ids: frozenset[int] | None = None) -> list[A.CallExpr]:
        """Calls that can execute, optionally only those inside ``ids``."""
        return [
            n for n in self.live
            if isinstance(n, A.CallExpr) and (ids is None or n.node_id in ids)
        ]


def compute_shape(fn: A.FunctionDef) -> FunctionShape:
    """Walk ``fn`` once and precompute loops, calls, ancestry and subtrees."""
    shape = FunctionShape(fn=fn)
    if fn.body is None:
        return shape
    shape.body_ids = subtree_ids(fn.body)

    def visit(stmt: A.Stmt, loop_stack: list[A.Stmt]) -> None:
        shape.enclosing[stmt.node_id] = list(loop_stack)
        is_loop = isinstance(stmt, (A.ForStmt, A.WhileStmt))
        if is_loop:
            shape.loops.append(stmt)
            ids = subtree_ids(stmt)
            shape.loop_subtrees[stmt.node_id] = ids
            if isinstance(stmt, A.ForStmt) and stmt.init is not None:
                init_ids = subtree_ids(stmt.init)
                shape.loop_regions[stmt.node_id] = ids - init_ids
            else:
                shape.loop_regions[stmt.node_id] = ids
            # The loop's condition (and step) execute once per iteration, so
            # expressions of the loop statement itself count the loop as
            # enclosing.
            loop_stack = loop_stack + [stmt]
        for expr in A.walk_exprs(stmt):
            shape.enclosing[expr.node_id] = list(loop_stack)
            if isinstance(expr, A.CallExpr):
                shape.calls.append(expr)
                shape.call_subtrees[expr.node_id] = subtree_ids(expr)
        for child in A.child_stmts(stmt):
            # For-loop init/step statements belong to the loop's subtree;
            # the init is *not* in the per-iteration region but ancestry-wise
            # both sit inside the loop.
            visit(child, loop_stack)

    visit(fn.body, [])
    walk = _LiveWalk(fn)
    walk.stmt(fn.body)
    shape.live = walk.live
    shape.indirect = frozenset(walk.indirect)
    return shape


class _LiveWalk:
    """Collect the nodes of one function that can execute.

    Code after ``break``/``continue``/``return``, a ``for`` step no
    iteration reaches and code after a ``for (;;)`` without ``break`` never
    run, so they are left out.  Also rejects what C rejects: ``break`` /
    ``continue`` outside a loop and a local declared twice.
    """

    def __init__(self, fn: A.FunctionDef) -> None:
        self.live: list[A.Node] = []
        self.indirect: set[int] = set()
        #: per enclosing loop: [reaches a break, reaches a continue]
        self.loops: list[list[bool]] = []
        self.declared = {p.name for p in fn.params}
        self.funcptrs = {p.name for p in fn.params if p.var_type == "funcptr"}

    def expr(self, expr: A.Expr) -> None:
        for child in A.child_exprs(expr):
            self.expr(child)
        if isinstance(expr, A.CallExpr):
            if expr.callee in self.funcptrs:
                self.indirect.add(expr.node_id)
            self.live.append(expr)
        elif isinstance(expr, A.AddrOf):
            self.live.append(expr)

    def stmt(self, stmt: A.Stmt) -> bool:
        """Walk ``stmt``; True when control can fall through it."""
        if isinstance(stmt, A.Block):
            return all(self.stmt(child) for child in stmt.stmts)
        if isinstance(stmt, A.VarDecl):
            if stmt.name in self.declared:
                raise LoweringError(f"{stmt.loc}: redeclaration of {stmt.name!r}")
            self.declared.add(stmt.name)
            if stmt.var_type == "funcptr":
                self.funcptrs.add(stmt.name)
            if stmt.init is not None:
                self.expr(stmt.init)
                self.live.append(stmt)
        elif isinstance(stmt, A.Assign):
            self.expr(stmt.value)
            if isinstance(stmt.target, A.ArrayRef):
                self.expr(stmt.target.index)
            elif isinstance(stmt.value, A.AddrOf):
                self.funcptrs.add(stmt.target.name)
            self.live.append(stmt)
        elif isinstance(stmt, A.ExprStmt):
            self.expr(stmt.expr)
        elif isinstance(stmt, A.ReturnStmt):
            if stmt.value is not None:
                self.expr(stmt.value)
            self.live.append(stmt)
            return False
        elif isinstance(stmt, (A.BreakStmt, A.ContinueStmt)):
            if not self.loops:
                word = "break" if isinstance(stmt, A.BreakStmt) else "continue"
                raise LoweringError(f"{stmt.loc}: {word} outside loop")
            self.loops[-1][isinstance(stmt, A.ContinueStmt)] = True
            return False
        elif isinstance(stmt, A.IfStmt):
            self.expr(stmt.cond)
            self.live.append(stmt)
            then = self.stmt(stmt.then_body)
            return (self.stmt(stmt.else_body) if stmt.else_body is not None else True) or then
        else:
            return self.loop(stmt)
        return True

    def loop(self, stmt: A.ForStmt | A.WhileStmt) -> bool:
        if isinstance(stmt, A.ForStmt) and stmt.init is not None:
            self.stmt(stmt.init)
        if stmt.cond is not None:
            self.expr(stmt.cond)
            self.live.append(stmt)
        self.loops.append([False, False])
        falls = self.stmt(stmt.body)
        breaks, continues = self.loops.pop()
        if isinstance(stmt, A.ForStmt) and stmt.step is not None and (falls or continues):
            self.stmt(stmt.step)
        return stmt.cond is not None or breaks
