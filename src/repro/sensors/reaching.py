"""Reaching definitions over the AST — the use–def chains of §3.2.

Definitions tracked:

* ``x = e`` / ``int x = e`` — a *must* definition of ``x`` (kills);
* ``a[i] = e``             — a *may* definition of array ``a`` (no kill);
* a call                   — a *may* definition of every global in the
  callee's mod set (``call_mods``; the sensors layer decides the set for
  unresolved callees);
* function entry           — a definition of every parameter, global and
  local: their incoming (or uninitialized) values.

The mini language is structured, so the facts are computed syntax-directed:
a loop re-walks its body until the state at its head stops growing, and
``break`` / ``continue`` / ``return`` carry their own sets to the loop exit,
the next iteration and nowhere.  Code that cannot execute defines nothing.
Operands are evaluated left to right, a call after its arguments and an
assignment's value before its target index.  Facts are answered per site:
the definitions reaching a ``VarRef`` / ``ArrayRef`` read, or a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.frontend import ast_nodes as A

#: variable -> definitions reaching a point; ``None`` where nothing can run
State = dict[str, frozenset["Definition"]]


@dataclass(frozen=True, slots=True)
class Definition:
    """One definition site of a named variable.

    ``node`` is the defining ``Assign`` / ``VarDecl`` / ``CallExpr``, or
    ``None`` for the entry definition.  ``is_may`` marks definitions that do
    not kill (array stores, call mod-effects).
    """

    var: str
    node: A.Node | None
    is_may: bool = False

    @property
    def is_entry(self) -> bool:
        return self.node is None


class ReachingDefinitions:
    """Solved reaching-definition facts for one function."""

    def __init__(self, at: dict[int, State]) -> None:
        self._at = at

    def reaching(self, site: A.Expr, var: str | None = None) -> list[Definition]:
        """Definitions of ``var`` (default: the name ``site`` reads) reaching
        the read or call ``site``, entry first, then in source order."""
        state = self._at.get(site.node_id)
        if state is None:
            raise KeyError(f"node {site.node_id} is not a reachable read or call")
        defs = state.get(var if var is not None else site.name, ())
        return sorted(defs, key=lambda d: d.node.node_id if d.node is not None else 0)


def compute_reaching_definitions(
    fn: A.FunctionDef,
    global_names: Iterable[str],
    call_mods: Callable[[A.CallExpr], Iterable[str]] | None = None,
) -> ReachingDefinitions:
    """Solve reaching definitions for ``fn``; ``call_mods`` maps a call to
    the globals it may modify (none when omitted)."""
    names = [p.name for p in fn.params] + sorted(global_names)
    if fn.body is not None:
        names += [s.name for s in A.walk_stmts(fn.body) if isinstance(s, A.VarDecl)]
    entry = {name: frozenset({Definition(name, None)}) for name in names}
    walk = _Walk(call_mods or (lambda call: ()))
    if fn.body is not None:
        walk.stmt(fn.body, entry)
    return ReachingDefinitions(walk.at)


def _join(*states: State | None) -> State | None:
    live = [s for s in states if s is not None]
    if not live:
        return None
    out = dict(live[0])
    for state in live[1:]:
        for var, defs in state.items():
            out[var] = out[var] | defs if var in out else defs
    return out


def _define(state: State, d: Definition) -> State:
    kept = state.get(d.var, frozenset()) if d.is_may else frozenset()
    return {**state, d.var: kept | {d}}


class _Walk:
    """One function's walk.  States are never mutated once built, so a
    site's snapshot can share them."""

    def __init__(self, call_mods: Callable[[A.CallExpr], Iterable[str]]) -> None:
        self.call_mods = call_mods
        self.at: dict[int, State] = {}
        #: per enclosing loop: (states at its breaks, states at its continues)
        self.loops: list[tuple[list[State], list[State]]] = []

    def expr(self, expr: A.Expr, state: State) -> State:
        for child in A.child_exprs(expr):
            state = self.expr(child, state)
        if isinstance(expr, (A.VarRef, A.ArrayRef, A.CallExpr)):
            self.at[expr.node_id] = state
        if isinstance(expr, A.CallExpr):
            for var in sorted(self.call_mods(expr)):
                state = _define(state, Definition(var, expr, is_may=True))
        return state

    def stmt(self, stmt: A.Stmt, state: State | None) -> State | None:
        if state is None:
            return None
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                state = self.stmt(child, state)
            return state
        if isinstance(stmt, A.VarDecl):
            if stmt.init is None:
                return state
            return _define(self.expr(stmt.init, state), Definition(stmt.name, stmt))
        if isinstance(stmt, A.Assign):
            state = self.expr(stmt.value, state)
            if isinstance(stmt.target, A.ArrayRef):
                state = self.expr(stmt.target.index, state)
                return _define(state, Definition(stmt.target.name, stmt, is_may=True))
            return _define(state, Definition(stmt.target.name, stmt))
        if isinstance(stmt, A.ExprStmt):
            return self.expr(stmt.expr, state)
        if isinstance(stmt, A.ReturnStmt):
            if stmt.value is not None:
                self.expr(stmt.value, state)
            return None
        if isinstance(stmt, (A.BreakStmt, A.ContinueStmt)):
            self.loops[-1][isinstance(stmt, A.ContinueStmt)].append(state)
            return None
        if isinstance(stmt, A.IfStmt):
            state = self.expr(stmt.cond, state)
            then = self.stmt(stmt.then_body, state)
            other = self.stmt(stmt.else_body, state) if stmt.else_body is not None else state
            return _join(then, other)
        return self.loop(stmt, state)

    def loop(self, stmt: A.ForStmt | A.WhileStmt, state: State) -> State | None:
        if isinstance(stmt, A.ForStmt) and stmt.init is not None:
            state = self.stmt(stmt.init, state)
        head = state
        while True:
            test = self.expr(stmt.cond, head) if stmt.cond is not None else head
            breaks: list[State] = []
            continues: list[State] = []
            self.loops.append((breaks, continues))
            latch = _join(self.stmt(stmt.body, test), *continues)
            self.loops.pop()
            if isinstance(stmt, A.ForStmt) and stmt.step is not None:
                latch = self.stmt(stmt.step, latch)
            grown = _join(state, latch)
            if grown == head:
                return _join(test if stmt.cond is not None else None, *breaks)
            head = grown
