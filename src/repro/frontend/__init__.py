"""Frontend for the mini C-like language used by the vSensor reproduction.

The paper runs its identification pass over LLVM-IR produced from C, C++ and
Fortran sources.  This reproduction defines a small C-like language that is
rich enough for every analysis in the paper to be non-trivial (nested loops,
branches, function calls, globals, arrays, MPI/libc intrinsics, function
pointers, recursion) while staying simple enough to parse with a hand-written
recursive-descent parser.

Public surface:

* :func:`parse_source` — text to :class:`~repro.frontend.ast_nodes.Module`.
* :mod:`repro.frontend.ast_nodes` — the AST node classes.
* :func:`~repro.frontend.pretty.format_module` — AST back to source text.
"""

from repro.frontend.ast_nodes import (
    AddrOf,
    ArrayRef,
    Assign,
    BinOp,
    Block,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    ExprStmt,
    FloatLit,
    ForStmt,
    FunctionDef,
    GlobalVar,
    IfStmt,
    IntLit,
    Module,
    Param,
    ReturnStmt,
    StringLit,
    UnaryOp,
    VarDecl,
    VarRef,
    WhileStmt,
)
from repro.frontend.lexer import tokenize
from repro.frontend.location import SourceLoc
from repro.frontend.parser import parse_source
from repro.frontend.pretty import format_module

__all__ = [
    "AddrOf",
    "ArrayRef",
    "Assign",
    "BinOp",
    "Block",
    "BreakStmt",
    "CallExpr",
    "ContinueStmt",
    "ExprStmt",
    "FloatLit",
    "ForStmt",
    "FunctionDef",
    "GlobalVar",
    "IfStmt",
    "IntLit",
    "Module",
    "Param",
    "ReturnStmt",
    "SourceLoc",
    "StringLit",
    "UnaryOp",
    "VarDecl",
    "VarRef",
    "WhileStmt",
    "format_module",
    "parse_source",
    "tokenize",
]
