"""Lowering: frontend AST to the three-address IR.

The lowering is deliberately straightforward (no optimization): every named
variable stays a memory location, every expression produces a fresh virtual
register.  Logical ``&&``/``||`` are lowered as strict (non-short-circuit)
integer operations — a documented deviation from C that keeps the CFG free
of synthetic branches so that branch conditions in the IR correspond 1:1 to
source-level control expressions.

``break``/``continue`` lower to jumps to the loop's exit/step blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import LoweringError
from repro.frontend import ast_nodes as A
from repro.ir.basicblock import BasicBlock
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    AddrOfInstr,
    BinInstr,
    Branch,
    CallInstr,
    ConstFloat,
    ConstInt,
    ConstStr,
    Jump,
    Load,
    LoadElem,
    Reg,
    Ret,
    Store,
    StoreElem,
    UnaryInstr,
    Value,
)
from repro.ir.irmodule import IRModule


@dataclass(slots=True)
class _LoopCtx:
    """Targets for break/continue inside the innermost enclosing loop."""

    continue_block: BasicBlock
    exit_block: BasicBlock


class _FunctionLowering:
    """Lowers one function body."""

    def __init__(self, module: IRModule, fn_ast: A.FunctionDef) -> None:
        self.module = module
        self.fn = IRFunction(
            name=fn_ast.name,
            params=[p.name for p in fn_ast.params],
            ret_type=fn_ast.ret_type,
            ast=fn_ast,
        )
        self.fn.param_types = {p.name: p.var_type for p in fn_ast.params}
        self._reg_counter = itertools.count(0)
        self._current: BasicBlock = self.fn.new_block("entry")
        self._loops: list[_LoopCtx] = []
        self._funcptr_vars: set[str] = set()

    # -- small helpers -------------------------------------------------------

    def _reg(self) -> Reg:
        return Reg(next(self._reg_counter))

    def _emit(self, instr) -> None:
        self._current.append(instr)

    def _switch_to(self, block: BasicBlock) -> None:
        self._current = block

    def _ensure_jump(self, target: BasicBlock, node: A.Node) -> None:
        """Terminate the current block with a jump if it is still open."""
        if not self._current.is_terminated:
            self._emit(Jump(ast_node=node, target=target))

    # -- driver ---------------------------------------------------------------

    def lower(self) -> IRFunction:
        body = self.fn.ast.body
        if body is not None:
            self._lower_block(body)
        if not self._current.is_terminated:
            default = None if self.fn.ret_type == "void" else ConstInt(0)
            self._emit(Ret(ast_node=self.fn.ast, value=default))
        self.fn.seal()
        return self.fn

    # -- statements ------------------------------------------------------------

    def _lower_block(self, block: A.Block) -> None:
        for stmt in block.stmts:
            if self._current.is_terminated:
                # Dead code after break/continue/return: skip.
                return
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, A.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, A.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, A.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, A.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, A.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, A.ReturnStmt):
            value = self._lower_expr(stmt.value) if stmt.value is not None else None
            self._emit(Ret(ast_node=stmt, value=value))
        elif isinstance(stmt, A.BreakStmt):
            if not self._loops:
                raise LoweringError(f"{stmt.loc}: break outside loop")
            self._emit(Jump(ast_node=stmt, target=self._loops[-1].exit_block))
        elif isinstance(stmt, A.ContinueStmt):
            if not self._loops:
                raise LoweringError(f"{stmt.loc}: continue outside loop")
            self._emit(Jump(ast_node=stmt, target=self._loops[-1].continue_block))
        elif isinstance(stmt, A.ExprStmt):
            self._lower_expr(stmt.expr, want_value=False)
        else:
            raise LoweringError(f"cannot lower {type(stmt).__name__}")

    def _lower_var_decl(self, stmt: A.VarDecl) -> None:
        if stmt.name in self.fn.locals or stmt.name in self.fn.params:
            raise LoweringError(f"{stmt.loc}: redeclaration of {stmt.name!r}")
        self.fn.locals[stmt.name] = stmt.array_size
        if stmt.var_type == "funcptr":
            self._funcptr_vars.add(stmt.name)
        if stmt.init is not None:
            value = self._lower_expr(stmt.init)
            self._emit(Store(ast_node=stmt, var=stmt.name, src=value))

    def _lower_assign(self, stmt: A.Assign) -> None:
        value = self._lower_expr(stmt.value)
        target = stmt.target
        if isinstance(target, A.VarRef):
            if isinstance(stmt.value, A.AddrOf):
                self._funcptr_vars.add(target.name)
            self._emit(Store(ast_node=stmt, var=target.name, src=value))
        elif isinstance(target, A.ArrayRef):
            index = self._lower_expr(target.index)
            self._emit(StoreElem(ast_node=stmt, arr=target.name, index=index, src=value))
        else:
            raise LoweringError(f"{stmt.loc}: bad assignment target")

    def _lower_if(self, stmt: A.IfStmt) -> None:
        cond = self._lower_expr(stmt.cond)
        then_block = self.fn.new_block("if.then")
        merge_block = self.fn.new_block("if.end")
        else_block = self.fn.new_block("if.else") if stmt.else_body is not None else merge_block
        self._emit(Branch(ast_node=stmt, cond=cond, true_block=then_block, false_block=else_block))

        self._switch_to(then_block)
        self._lower_block(stmt.then_body)
        self._ensure_jump(merge_block, stmt)

        if stmt.else_body is not None:
            self._switch_to(else_block)
            self._lower_block(stmt.else_body)
            self._ensure_jump(merge_block, stmt)

        self._switch_to(merge_block)

    def _lower_for(self, stmt: A.ForStmt) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self.fn.new_block("for.header")
        body = self.fn.new_block("for.body")
        step = self.fn.new_block("for.step")
        exit_block = self.fn.new_block("for.end")
        self._ensure_jump(header, stmt)

        self._switch_to(header)
        if stmt.cond is not None:
            cond = self._lower_expr(stmt.cond)
            self._emit(Branch(ast_node=stmt, cond=cond, true_block=body, false_block=exit_block))
        else:
            self._emit(Jump(ast_node=stmt, target=body))

        self._loops.append(_LoopCtx(continue_block=step, exit_block=exit_block))
        self._switch_to(body)
        self._lower_block(stmt.body)
        self._ensure_jump(step, stmt)
        self._loops.pop()

        self._switch_to(step)
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        self._ensure_jump(header, stmt)

        self._switch_to(exit_block)

    def _lower_while(self, stmt: A.WhileStmt) -> None:
        header = self.fn.new_block("while.header")
        body = self.fn.new_block("while.body")
        exit_block = self.fn.new_block("while.end")
        self._ensure_jump(header, stmt)

        self._switch_to(header)
        cond = self._lower_expr(stmt.cond)
        self._emit(Branch(ast_node=stmt, cond=cond, true_block=body, false_block=exit_block))

        self._loops.append(_LoopCtx(continue_block=header, exit_block=exit_block))
        self._switch_to(body)
        self._lower_block(stmt.body)
        self._ensure_jump(header, stmt)
        self._loops.pop()

        self._switch_to(exit_block)

    # -- expressions -------------------------------------------------------------

    def _lower_expr(self, expr: A.Expr, want_value: bool = True) -> Value:
        if isinstance(expr, A.IntLit):
            return ConstInt(expr.value)
        if isinstance(expr, A.FloatLit):
            return ConstFloat(expr.value)
        if isinstance(expr, A.StringLit):
            return ConstStr(expr.value)
        if isinstance(expr, A.VarRef):
            dest = self._reg()
            self._emit(Load(ast_node=expr, dest=dest, var=expr.name))
            return dest
        if isinstance(expr, A.ArrayRef):
            index = self._lower_expr(expr.index)
            dest = self._reg()
            self._emit(LoadElem(ast_node=expr, dest=dest, arr=expr.name, index=index))
            return dest
        if isinstance(expr, A.BinOp):
            lhs = self._lower_expr(expr.left)
            rhs = self._lower_expr(expr.right)
            dest = self._reg()
            self._emit(BinInstr(ast_node=expr, dest=dest, op=expr.op, lhs=lhs, rhs=rhs))
            return dest
        if isinstance(expr, A.UnaryOp):
            src = self._lower_expr(expr.operand)
            dest = self._reg()
            self._emit(UnaryInstr(ast_node=expr, dest=dest, op=expr.op, src=src))
            return dest
        if isinstance(expr, A.CallExpr):
            args = [self._lower_expr(a) for a in expr.args]
            dest = self._reg() if want_value else None
            is_indirect = self._is_funcptr_name(expr.callee)
            instr = CallInstr(
                ast_node=expr, dest=dest, callee=expr.callee, args=args, is_indirect=is_indirect
            )
            self._emit(instr)
            return dest if dest is not None else ConstInt(0)
        if isinstance(expr, A.AddrOf):
            dest = self._reg()
            self._emit(AddrOfInstr(ast_node=expr, dest=dest, func_name=expr.func_name))
            return dest
        raise LoweringError(f"cannot lower expression {type(expr).__name__}")

    def _is_funcptr_name(self, name: str) -> bool:
        """A call through a variable declared funcptr is indirect."""
        if name in self._funcptr_vars:
            return True
        return self.fn.param_types.get(name) == "funcptr"


def lower_function(module: IRModule, fn_ast: A.FunctionDef) -> IRFunction:
    """Lower one function definition into ``module``'s context."""
    return _FunctionLowering(module, fn_ast).lower()


def lower_module(ast_module: A.Module) -> IRModule:
    """Lower a parsed module to IR (workflow step 1, 'Compile')."""
    module = IRModule(ast=ast_module)
    for gv in ast_module.globals:
        module.globals[gv.name] = gv.array_size
    for fn_ast in ast_module.functions:
        module.functions[fn_ast.name] = lower_function(module, fn_ast)
    return module
