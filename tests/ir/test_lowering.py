"""Lowering tests: AST to three-address IR."""

import pytest

from repro.errors import LoweringError
from repro.frontend.parser import parse_source
from repro.ir import (
    BinInstr,
    Branch,
    CallInstr,
    ConstInt,
    IRFunction,
    Jump,
    Load,
    LoadElem,
    Ret,
    Store,
    StoreElem,
    lower_module,
)


def lower(src):
    return lower_module(parse_source(src))


def instrs_of(src, fn="main"):
    return list(lower(src).function(fn).instructions())


class TestBasicLowering:
    def test_assignment_produces_store(self):
        instrs = instrs_of("int main() { int x; x = 5; return 0; }")
        stores = [i for i in instrs if isinstance(i, Store)]
        assert any(s.var == "x" for s in stores)

    def test_var_read_produces_load(self):
        instrs = instrs_of("int main() { int x; int y; y = x; return 0; }")
        assert any(isinstance(i, Load) and i.var == "x" for i in instrs)

    def test_binop_lowered(self):
        instrs = instrs_of("int main() { int x; x = 1 + 2; return 0; }")
        bin_instrs = [i for i in instrs if isinstance(i, BinInstr)]
        assert len(bin_instrs) == 1
        assert bin_instrs[0].op == "+"

    def test_array_access(self):
        instrs = instrs_of("global int a[4]; int main() { int x; x = a[1]; a[2] = x; return 0; }")
        assert any(isinstance(i, LoadElem) and i.arr == "a" for i in instrs)
        assert any(isinstance(i, StoreElem) and i.arr == "a" for i in instrs)

    def test_call_lowered_with_args(self):
        instrs = instrs_of("void f(int a) { } int main() { f(3); return 0; }")
        calls = [i for i in instrs if isinstance(i, CallInstr)]
        assert len(calls) == 1
        assert calls[0].callee == "f"
        assert calls[0].args == [ConstInt(3)]

    def test_call_in_expr_stmt_discards_value(self):
        instrs = instrs_of("int f() { return 1; } int main() { f(); return 0; }")
        call = next(i for i in instrs if isinstance(i, CallInstr))
        assert call.dest is None

    def test_call_in_expression_keeps_value(self):
        instrs = instrs_of("int f() { return 1; } int main() { int x; x = f() + 1; return 0; }")
        call = next(i for i in instrs if isinstance(i, CallInstr))
        assert call.dest is not None

    def test_void_function_gets_bare_ret(self):
        instrs = instrs_of("void f() { }", fn="f")
        rets = [i for i in instrs if isinstance(i, Ret)]
        assert len(rets) == 1 and rets[0].value is None

    def test_int_function_default_return_zero(self):
        instrs = instrs_of("int main() { int x; x = 1; }")
        ret = next(i for i in instrs if isinstance(i, Ret))
        assert ret.value == ConstInt(0)


class TestControlFlow:
    def test_if_produces_branch(self):
        fn = lower("int main() { int x; if (x) x = 1; return 0; }").function("main")
        branches = [i for i in fn.instructions() if isinstance(i, Branch)]
        assert len(branches) == 1

    def test_if_else_block_count(self):
        fn = lower("int main() { int x; if (x) x = 1; else x = 2; return 0; }").function("main")
        labels = [b.label for b in fn.blocks]
        assert any("if.then" in l for l in labels)
        assert any("if.else" in l for l in labels)
        assert any("if.end" in l for l in labels)

    def test_for_produces_header_body_step_exit(self):
        fn = lower("int main() { int i; for (i = 0; i < 3; i = i + 1) { } return 0; }").function("main")
        labels = [b.label for b in fn.blocks]
        for part in ("for.header", "for.body", "for.step", "for.end"):
            assert any(part in l for l in labels), part

    def test_while_produces_header(self):
        fn = lower("int main() { int x; while (x) x = x - 1; return 0; }").function("main")
        assert any("while.header" in b.label for b in fn.blocks)

    def test_break_jumps_to_exit(self):
        fn = lower("int main() { for (;;) break; return 0; }").function("main")
        jumps = [i for i in fn.instructions() if isinstance(i, Jump)]
        assert any("for.end" in j.target.label for j in jumps)

    def test_continue_jumps_to_step(self):
        fn = lower(
            "int main() { int i; for (i = 0; i < 3; i = i + 1) { continue; } return 0; }"
        ).function("main")
        jumps = [i for i in fn.instructions() if isinstance(i, Jump)]
        assert any("for.step" in j.target.label for j in jumps)

    def test_break_outside_loop_raises(self):
        with pytest.raises(LoweringError, match="break outside loop"):
            lower("int main() { break; return 0; }")

    def test_continue_outside_loop_raises(self):
        with pytest.raises(LoweringError, match="continue outside loop"):
            lower("int main() { continue; return 0; }")

    def test_dead_code_after_return_dropped(self):
        fn = lower("int main() { return 1; x = 2; }").function("main")
        assert not any(isinstance(i, Store) for i in fn.instructions())

    def test_unreachable_blocks_pruned(self):
        fn = lower("int main() { for (;;) { } return 0; }").function("main")
        # The for.end block is unreachable (infinite loop) but harmless if
        # kept; what matters is all kept blocks are terminated.
        for block in fn.blocks:
            assert block.is_terminated


class TestStructuralInvariants:
    def test_every_block_terminated(self, paper_module):
        module = lower_module(paper_module)
        for fn in module.functions.values():
            for block in fn.blocks:
                assert block.is_terminated, f"{fn.name}:{block.label}"

    def test_registers_single_assignment(self, paper_module):
        module = lower_module(paper_module)
        for fn in module.functions.values():
            seen = set()
            for instr in fn.instructions():
                if instr.dst is not None:
                    assert instr.dst not in seen
                    seen.add(instr.dst)

    def test_preds_consistent_with_successors(self, paper_module):
        module = lower_module(paper_module)
        for fn in module.functions.values():
            for block in fn.blocks:
                for succ in block.successors():
                    assert block in succ.preds

    def test_ast_back_links_present(self, paper_module):
        module = lower_module(paper_module)
        for fn in module.functions.values():
            for instr in fn.instructions():
                assert instr.ast_node is not None

    def test_globals_registered(self):
        module = lower("global int G; global float a[4]; int main() { return 0; }")
        assert module.globals == {"G": None, "a": 4}

    def test_redeclaration_raises(self):
        with pytest.raises(LoweringError, match="redeclaration"):
            lower("int main() { int x; int x; return 0; }")

    def test_funcptr_call_marked_indirect(self):
        module = lower(
            "void f() { } int main() { funcptr fp; fp = &f; fp(); return 0; }"
        )
        calls = [i for i in module.function("main").instructions() if isinstance(i, CallInstr)]
        assert any(c.is_indirect for c in calls)

    def test_direct_call_not_indirect(self):
        module = lower("void f() { } int main() { f(); return 0; }")
        calls = [i for i in module.function("main").instructions() if isinstance(i, CallInstr)]
        assert not any(c.is_indirect for c in calls)


def test_unreachable_block_dropped_by_seal():
    fn = IRFunction(name="synthetic", params=[], ret_type="void")
    entry, reachable, orphan = (fn.new_block(f"b{i}") for i in range(3))
    entry.append(Jump(ast_node=None, target=reachable))
    reachable.append(Ret(ast_node=None, value=None))
    orphan.append(Ret(ast_node=None, value=None))
    fn.seal()
    assert fn.blocks == [entry, reachable]
    assert reachable.preds == [entry]
    assert entry.preds == []
