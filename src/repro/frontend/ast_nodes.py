"""AST node classes for the mini C-like language.

Every node carries a :class:`~repro.frontend.location.SourceLoc` and a
process-unique integer ``node_id``.  The id is what the rest of the tool
chain uses to refer back to source constructs: IR instructions link to the
node they were lowered from, identified v-sensors name the loop/call node
they wrap, and the instrumenter keys Tick/Tock insertion off node ids.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field, fields

from repro.frontend.location import SourceLoc

_NODE_IDS = itertools.count(1)


def _next_node_id() -> int:
    return next(_NODE_IDS)


@contextlib.contextmanager
def fresh_node_ids(start: int = 1):
    """Number nodes created inside the block from ``start``.

    The parser wraps each translation unit in this, so parsing the same
    source always yields the same node ids — the property that makes
    compilation content-addressable (sensor ids are node ids, and the
    instrumented text embeds them in ``vs_tick(id)`` literals).  Ids still
    never collide *within* one tree; nodes from different trees may share
    ids, which is safe because node equality is identity and every id-keyed
    map in the tool chain is per-tree.
    """
    global _NODE_IDS
    saved = _NODE_IDS
    _NODE_IDS = itertools.count(start)
    try:
        yield
    finally:
        _NODE_IDS = saved


@dataclass(eq=False, slots=True)
class Node:
    """Base class for all AST nodes."""

    loc: SourceLoc
    node_id: int = field(default_factory=_next_node_id, init=False)

    def __hash__(self) -> int:
        return self.node_id

    def __eq__(self, other: object) -> bool:
        return self is other


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Expr(Node):
    """Base class for expressions."""


@dataclass(eq=False, slots=True)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=False, slots=True)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(eq=False, slots=True)
class StringLit(Expr):
    value: str = ""


@dataclass(eq=False, slots=True)
class VarRef(Expr):
    name: str = ""


@dataclass(eq=False, slots=True)
class ArrayRef(Expr):
    name: str = ""
    index: Expr | None = None


@dataclass(eq=False, slots=True)
class BinOp(Expr):
    op: str = "+"
    left: Expr | None = None
    right: Expr | None = None


@dataclass(eq=False, slots=True)
class UnaryOp(Expr):
    op: str = "-"
    operand: Expr | None = None


@dataclass(eq=False, slots=True)
class CallExpr(Expr):
    """A direct call ``f(args)`` or an indirect call through a funcptr variable.

    ``callee`` is the spelled name; whether it is a function or a funcptr
    variable is resolved during call-graph construction.
    """

    callee: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class AddrOf(Expr):
    """``&f`` — the address of a function, assignable to a funcptr variable."""

    func_name: str = ""


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Stmt(Node):
    """Base class for statements."""


@dataclass(eq=False, slots=True)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class VarDecl(Stmt):
    name: str = ""
    var_type: str = "int"  # "int" | "float" | "funcptr"
    array_size: int | None = None
    init: Expr | None = None


@dataclass(eq=False, slots=True)
class Assign(Stmt):
    """``target = value`` where target is a VarRef or ArrayRef."""

    target: Expr | None = None
    value: Expr | None = None


@dataclass(eq=False, slots=True)
class IfStmt(Stmt):
    cond: Expr | None = None
    then_body: Block | None = None
    else_body: Block | None = None


@dataclass(eq=False, slots=True)
class ForStmt(Stmt):
    """``for (init; cond; step) body``.

    ``init`` and ``step`` are single statements (usually assignments) and may
    be ``None``; ``cond`` may be ``None`` for an infinite loop.
    """

    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Block | None = None


@dataclass(eq=False, slots=True)
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Block | None = None


@dataclass(eq=False, slots=True)
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass(eq=False, slots=True)
class BreakStmt(Stmt):
    pass


@dataclass(eq=False, slots=True)
class ContinueStmt(Stmt):
    pass


@dataclass(eq=False, slots=True)
class ExprStmt(Stmt):
    expr: Expr | None = None


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Param(Node):
    name: str = ""
    var_type: str = "int"


@dataclass(eq=False, slots=True)
class GlobalVar(Node):
    name: str = ""
    var_type: str = "int"
    array_size: int | None = None
    init: Expr | None = None


@dataclass(eq=False, slots=True)
class FunctionDef(Node):
    name: str = ""
    ret_type: str = "void"
    params: list[Param] = field(default_factory=list)
    body: Block | None = None


#: the function every program starts at: where simulation enters, and the
#: caller-less root inter-procedural promotion stops at
ENTRY = "main"


@dataclass(eq=False, slots=True)
class Module(Node):
    """A whole translation unit: globals plus function definitions."""

    globals: list[GlobalVar] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    source: str = ""
    filename: str = "<string>"

    def function(self, name: str) -> FunctionDef:
        """Look up a function by name; raises KeyError if absent."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def has_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self.functions)

    def global_var(self, name: str) -> GlobalVar:
        for gv in self.globals:
            if gv.name == name:
                return gv
        raise KeyError(name)

    def global_names(self) -> set[str]:
        return {gv.name for gv in self.globals}


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def child_stmts(stmt: Stmt) -> list[Stmt]:
    """Direct child statements of ``stmt`` (not recursive)."""
    if isinstance(stmt, Block):
        return list(stmt.stmts)
    if isinstance(stmt, IfStmt):
        out: list[Stmt] = []
        if stmt.then_body is not None:
            out.append(stmt.then_body)
        if stmt.else_body is not None:
            out.append(stmt.else_body)
        return out
    if isinstance(stmt, ForStmt):
        out = []
        if stmt.init is not None:
            out.append(stmt.init)
        if stmt.step is not None:
            out.append(stmt.step)
        if stmt.body is not None:
            out.append(stmt.body)
        return out
    if isinstance(stmt, WhileStmt):
        return [stmt.body] if stmt.body is not None else []
    return []


def walk_stmts(root: Stmt):
    """Yield ``root`` and every statement nested below it, preorder."""
    stack = [root]
    while stack:
        stmt = stack.pop()
        yield stmt
        children = child_stmts(stmt)
        stack.extend(reversed(children))


def child_exprs(node: Node) -> list[Expr]:
    """Direct child expressions of a statement or expression node."""
    if isinstance(node, (Assign,)):
        return [e for e in (node.target, node.value) if e is not None]
    if isinstance(node, VarDecl):
        return [node.init] if node.init is not None else []
    if isinstance(node, IfStmt):
        return [node.cond] if node.cond is not None else []
    if isinstance(node, (ForStmt, WhileStmt)):
        return [node.cond] if node.cond is not None else []
    if isinstance(node, ReturnStmt):
        return [node.value] if node.value is not None else []
    if isinstance(node, ExprStmt):
        return [node.expr] if node.expr is not None else []
    if isinstance(node, BinOp):
        return [e for e in (node.left, node.right) if e is not None]
    if isinstance(node, UnaryOp):
        return [node.operand] if node.operand is not None else []
    if isinstance(node, CallExpr):
        return list(node.args)
    if isinstance(node, ArrayRef):
        return [node.index] if node.index is not None else []
    return []


def walk_exprs(node: Node):
    """Yield every expression nested in ``node`` (which may be a Stmt), preorder.

    For statements this walks only the expressions of the statement itself,
    not of nested statements.
    """
    stack = list(child_exprs(node))
    if isinstance(node, Expr):
        stack = [node]
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(reversed(child_exprs(expr)))


def walk_all_exprs(root: Stmt):
    """Yield every expression under ``root`` including nested statements."""
    for stmt in walk_stmts(root):
        yield from walk_exprs(stmt)


def collect_calls(root: Stmt) -> list[CallExpr]:
    """All call expressions anywhere under ``root``."""
    return [e for e in walk_all_exprs(root) if isinstance(e, CallExpr)]


def collect_loops(root: Stmt) -> list[Stmt]:
    """All loop statements (for/while) anywhere under ``root``."""
    return [s for s in walk_stmts(root) if isinstance(s, (ForStmt, WhileStmt))]


def clone_tree(node: Node) -> Node:
    """Structural copy of the tree under ``node``, node ids included.

    Nodes and the lists that hold them are copied; everything else a node
    carries (locations, names, literal values) is immutable and shared.  The
    instrumenter splices probes into such a copy, so the parse artifact the
    other passes hold stays as parsed.
    """
    cls = type(node)
    clone = object.__new__(cls)
    for f in fields(cls):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            value = clone_tree(value)
        elif type(value) is list:
            value = [clone_tree(child) for child in value]
        setattr(clone, f.name, value)
    return clone
