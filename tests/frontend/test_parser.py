"""Parser unit tests."""

import pytest

from repro.api import run_uninstrumented
from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend.parser import parse_source
from repro.sim.machine import MachineConfig


def first_stmt(source_body):
    mod = parse_source("int main() { " + source_body + " }")
    return mod.function("main").body.stmts[0]


def first_expr(expr_text):
    stmt = first_stmt(f"x = {expr_text};")
    assert isinstance(stmt, A.Assign)
    return stmt.value


class TestTopLevel:
    def test_empty_module(self):
        mod = parse_source("")
        assert mod.functions == []
        assert mod.globals == []

    def test_global_scalar(self):
        mod = parse_source("global int G = 40;")
        gv = mod.global_var("G")
        assert gv.var_type == "int"
        assert isinstance(gv.init, A.IntLit)
        assert gv.init.value == 40

    def test_global_array(self):
        mod = parse_source("global float arr[128];")
        gv = mod.global_var("arr")
        assert gv.array_size == 128
        assert gv.init is None

    def test_global_without_init(self):
        assert parse_source("global int G;").global_var("G").init is None

    def test_function_signature(self):
        mod = parse_source("int foo(int x, float y) { return x; }")
        fn = mod.function("foo")
        assert fn.ret_type == "int"
        assert [(p.name, p.var_type) for p in fn.params] == [("x", "int"), ("y", "float")]

    def test_void_function_no_params(self):
        fn = parse_source("void bar() { }").function("bar")
        assert fn.ret_type == "void"
        assert fn.params == []

    def test_multiple_functions(self):
        mod = parse_source("void a() { } void b() { a(); }")
        assert [f.name for f in mod.functions] == ["a", "b"]

    def test_module_function_lookup_missing(self):
        with pytest.raises(KeyError):
            parse_source("void a() { }").function("zzz")


class TestStatements:
    def test_var_decl_with_init(self):
        stmt = first_stmt("int v = 3;")
        assert isinstance(stmt, A.VarDecl)
        assert stmt.name == "v"
        assert stmt.init.value == 3

    def test_array_decl(self):
        stmt = first_stmt("float buf[16];")
        assert stmt.array_size == 16

    def test_funcptr_decl(self):
        stmt = first_stmt("funcptr fp;")
        assert stmt.var_type == "funcptr"

    def test_assignment(self):
        stmt = first_stmt("x = 1;")
        assert isinstance(stmt, A.Assign)
        assert isinstance(stmt.target, A.VarRef)

    def test_array_element_assignment(self):
        stmt = first_stmt("a[i + 1] = 2;")
        assert isinstance(stmt.target, A.ArrayRef)
        assert isinstance(stmt.target.index, A.BinOp)

    def test_if_without_else(self):
        stmt = first_stmt("if (x > 0) x = 1;")
        assert isinstance(stmt, A.IfStmt)
        assert stmt.else_body is None
        # single statements are wrapped in blocks
        assert isinstance(stmt.then_body, A.Block)

    def test_if_with_else(self):
        stmt = first_stmt("if (x) x = 1; else x = 2;")
        assert stmt.else_body is not None

    def test_if_else_if_chain(self):
        stmt = first_stmt("if (x) x = 1; else if (y) x = 2;")
        inner = stmt.else_body.stmts[0]
        assert isinstance(inner, A.IfStmt)

    def test_for_loop_parts(self):
        stmt = first_stmt("for (i = 0; i < 10; i = i + 1) x = x + 1;")
        assert isinstance(stmt, A.ForStmt)
        assert isinstance(stmt.init, A.Assign)
        assert isinstance(stmt.cond, A.BinOp)
        assert isinstance(stmt.step, A.Assign)

    def test_for_loop_empty_parts(self):
        stmt = first_stmt("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_while_loop(self):
        stmt = first_stmt("while (x < 5) x = x + 1;")
        assert isinstance(stmt, A.WhileStmt)

    def test_return_value(self):
        stmt = first_stmt("return 7;")
        assert isinstance(stmt, A.ReturnStmt)
        assert stmt.value.value == 7

    def test_return_bare(self):
        assert first_stmt("return;").value is None

    def test_break_continue(self):
        assert isinstance(first_stmt("break;"), A.BreakStmt)
        assert isinstance(first_stmt("continue;"), A.ContinueStmt)

    def test_expression_statement_call(self):
        stmt = first_stmt("foo(1, 2);")
        assert isinstance(stmt, A.ExprStmt)
        assert isinstance(stmt.expr, A.CallExpr)

    def test_nested_block(self):
        stmt = first_stmt("{ int y; y = 1; }")
        assert isinstance(stmt, A.Block)
        assert len(stmt.stmts) == 2


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = first_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_relational_over_logical(self):
        expr = first_expr("a < b && c > d")
        assert expr.op == "&&"
        assert expr.left.op == "<"

    def test_precedence_or_loosest(self):
        expr = first_expr("a && b || c")
        assert expr.op == "||"

    def test_parentheses_override(self):
        expr = first_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_left_associativity(self):
        expr = first_expr("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_unary_minus(self):
        expr = first_expr("-x")
        assert isinstance(expr, A.UnaryOp)
        assert expr.op == "-"

    def test_unary_not(self):
        assert first_expr("!x").op == "!"

    def test_double_unary(self):
        expr = first_expr("--x")
        assert isinstance(expr.operand, A.UnaryOp)

    def test_call_with_args(self):
        expr = first_expr("f(1, g(2), h())")
        assert expr.callee == "f"
        assert len(expr.args) == 3
        assert isinstance(expr.args[1], A.CallExpr)

    def test_array_index(self):
        expr = first_expr("arr[i * 2]")
        assert isinstance(expr, A.ArrayRef)

    def test_addr_of_function(self):
        expr = first_expr("&foo")
        assert isinstance(expr, A.AddrOf)
        assert expr.func_name == "foo"

    def test_float_literal(self):
        assert isinstance(first_expr("2.5"), A.FloatLit)

    def test_string_literal_argument(self):
        stmt = first_stmt('printf("hi");')
        assert isinstance(stmt.expr.args[0], A.StringLit)

    def test_modulo(self):
        assert first_expr("a % 2").op == "%"

    def test_comparison_chain_parses_left(self):
        expr = first_expr("a == b != c")
        assert expr.op == "!="


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "int main() {",          # unterminated block
            "int main() { x = ; }",  # missing rhs
            "int main() { 1 = x; }", # bad assignment target
            "int () { }",            # missing name
            "main() { }",            # missing type
            "int main() { for (x) ; }",  # bad for header
            "global int;",           # missing global name
            "int main() { x = (1; }",    # unbalanced paren
        ],
    )
    def test_bad_programs_raise(self, source):
        with pytest.raises(ParseError):
            parse_source(source)

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_source("int main() {\n  x = ;\n}")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "source",
        [
            "global float x[0];\nint main() { x[1] = 2.0; return 0; }",
            "int main() {\n  int x[0];\n  x[3] = 1;\n  return x[0];\n}",
        ],
        ids=["global", "local"],
    )
    def test_empty_array_is_refused_on_every_tier(self, source):
        """Every tier indexes ``i % len(arr)``: an empty array used to die
        with a bare ZeroDivisionError at its first index, in all three."""
        machine = MachineConfig(n_ranks=2, ranks_per_node=2)
        for engine in ("ast", "bytecode", "lockstep"):
            with pytest.raises(ParseError, match="array 'x' must have at least one") as exc:
                run_uninstrumented(source, machine, engine=engine)
            assert (exc.value.line, exc.value.col) == (
                (1, 16) if source.startswith("global") else (2, 9)
            )


class TestNodeIdentity:
    def test_node_ids_unique(self, paper_module):
        ids = set()
        for fn in paper_module.functions:
            for stmt in A.walk_stmts(fn.body):
                assert stmt.node_id not in ids
                ids.add(stmt.node_id)

    def test_nodes_hash_by_identity(self):
        mod = parse_source("int main() { x = 1; x = 1; }")
        a, b = mod.function("main").body.stmts
        assert a != b
        assert hash(a) != hash(b)
