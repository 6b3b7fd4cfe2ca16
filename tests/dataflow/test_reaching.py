"""Reaching-definition tests over the AST, including how ``break`` /
``continue`` / ``return`` and code that cannot run shape the facts."""

import pytest

from repro.errors import LoweringError
from repro.frontend import ast_nodes as A
from repro.frontend.parser import parse_source
from repro.sensors import identify_vsensors
from repro.sensors.reaching import compute_reaching_definitions


def setup(src, fn="main", mods=None):
    module = parse_source(src)
    f = module.function(fn)
    reaching = compute_reaching_definitions(f, module.global_names(), call_mods=mods)
    return module, f, reaching


def reads(fn, var=None, kind=A.VarRef):
    """Reads of ``var`` (assignment targets are writes), in source order."""
    targets = {s.target.node_id for s in A.walk_stmts(fn.body) if isinstance(s, A.Assign)}
    return [
        e for e in A.walk_all_exprs(fn.body)
        if isinstance(e, kind) and e.node_id not in targets and var in (None, e.name)
    ]


def load_of(fn, var, occurrence=0):
    return reads(fn, var)[occurrence]


def stores(defs):
    return [d for d in defs if not d.is_entry and not d.is_may]


def test_straight_line_kill():
    _, fn, reaching = setup("int main() { int x; x = 1; x = 2; return x; }")
    defs = reaching.reaching(load_of(fn, "x"))
    assert len(stores(defs)) == 1  # x=2 killed x=1


def test_branch_merges_definitions():
    _, fn, reaching = setup(
        "int main() { int x; int c; if (c) x = 1; else x = 2; return x; }"
    )
    defs = [d for d in reaching.reaching(load_of(fn, "x")) if not d.is_entry]
    assert len(defs) == 2


def test_if_without_else_keeps_prior_def():
    _, fn, reaching = setup(
        "int main() { int x; int c; x = 1; if (c) x = 2; return x; }"
    )
    defs = [d for d in reaching.reaching(load_of(fn, "x")) if not d.is_entry]
    assert len(defs) == 2


def test_loop_back_edge_brings_defs_around():
    _, fn, reaching = setup(
        "int main() { int i; for (i = 0; i < 3; i = i + 1) { } return 0; }"
    )
    # The condition's read of i sees both the init and the step definition.
    defs = [d for d in reaching.reaching(load_of(fn, "i")) if not d.is_entry]
    assert len(defs) == 2


def test_entry_definitions_for_params():
    _, fn, reaching = setup("int f(int p) { return p; }", fn="f")
    defs = reaching.reaching(load_of(fn, "p"))
    assert len(defs) == 1 and defs[0].is_entry


def test_entry_definitions_for_globals():
    _, fn, reaching = setup("global int G; int main() { return G; }")
    defs = reaching.reaching(load_of(fn, "G"))
    assert len(defs) == 1 and defs[0].is_entry


def test_global_store_kills_entry():
    _, fn, reaching = setup("global int G; int main() { G = 1; return G; }")
    defs = reaching.reaching(load_of(fn, "G"))
    assert len(defs) == 1 and not defs[0].is_entry


def test_array_store_is_may_def():
    _, fn, reaching = setup(
        "global int a[4]; int main() { a[0] = 1; return a[1]; }"
    )
    (load,) = reads(fn, "a", kind=A.ArrayRef)
    defs = reaching.reaching(load)
    # Entry def survives (may-def doesn't kill) plus the element store.
    kinds = sorted(d.is_entry for d in defs)
    assert kinds == [False, True]
    assert any(d.is_may for d in defs)


def test_call_mod_set_injects_may_def():
    src = "global int G; void f() { G = 1; } int main() { f(); return G; }"

    def mods(call: A.CallExpr):
        return {"G"} if call.callee == "f" else set()

    _, fn, reaching = setup(src, mods=mods)
    defs = reaching.reaching(load_of(fn, "G"))
    assert any(isinstance(d.node, A.CallExpr) and d.is_may for d in defs)
    # Entry def survives because the call def is a may-def.
    assert any(d.is_entry for d in defs)


def test_no_call_mods_by_default():
    src = "global int G; void f() { G = 1; } int main() { f(); return G; }"
    _, fn, reaching = setup(src)
    defs = reaching.reaching(load_of(fn, "G"))
    assert all(not isinstance(d.node, A.CallExpr) for d in defs)


def test_locals_have_entry_defs_for_uninitialized_reads():
    _, fn, reaching = setup("int main() { int x; return x; }")
    defs = reaching.reaching(load_of(fn, "x"))
    assert len(defs) == 1 and defs[0].is_entry


def test_every_read_of_the_paper_example_has_facts(paper_module):
    for fn in paper_module.functions:
        reaching = compute_reaching_definitions(fn, paper_module.global_names())
        for read in reads(fn):
            assert reaching.reaching(read)


def test_break_carries_its_set_to_the_loop_exit():
    _, fn, reaching = setup(
        "int main() { int x; int c; x = 1;"
        " while (c) { x = 2; if (c) break; x = 3; } return x; }"
    )
    # The exit sees the pre-loop store (condition false at once), the store
    # before the break, and the store ending an iteration.
    assert len(stores(reaching.reaching(load_of(fn, "x")))) == 3


def test_continue_skips_the_rest_of_the_body_but_not_the_step():
    _, fn, reaching = setup(
        "int main() { int i; int x; x = 0;"
        " for (i = 0; i < 9; i = i + 1) { if (i) continue; x = i; } return x; }"
    )
    # The step's read of i sees the condition's facts: the init and the step.
    assert len(stores(reaching.reaching(load_of(fn, "i", 1)))) == 2
    assert len(stores(reaching.reaching(load_of(fn, "x")))) == 2


def test_code_after_return_or_break_defines_nothing():
    _, fn, reaching = setup(
        "int main() { int x; int c; x = 1;"
        " while (c) { break; x = 2; } if (c) { return x; x = 3; } return x; }"
    )
    (only,) = stores(reaching.reaching(load_of(fn, "x", 1)))
    assert isinstance(only.node.value, A.IntLit) and only.node.value.value == 1


def test_malformed_functions_are_refused():
    for src, message in (
        ("int main() { break; return 0; }", "break outside loop"),
        ("int main() { continue; return 0; }", "continue outside loop"),
        ("int main() { int x; int x; return 0; }", "redeclaration of 'x'"),
        ("int f(int p) { int p; return p; }", "redeclaration of 'p'"),
    ):
        with pytest.raises(LoweringError, match=message):
            identify_vsensors(parse_source(src))
