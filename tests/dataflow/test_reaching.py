"""Reaching-definition tests, and the CFG orders the solver iterates in."""

from repro.dataflow import compute_reaching_definitions
from repro.dataflow.reaching import postorder, reverse_postorder
from repro.frontend.parser import parse_source
from repro.ir import CallInstr, Load, Store, lower_module


def setup(src, fn="main", mods=None):
    module = lower_module(parse_source(src))
    f = module.function(fn)
    reaching = compute_reaching_definitions(
        f, set(module.globals), call_mod_sets=mods
    )
    return module, f, reaching


def load_of(fn, var, occurrence=0):
    loads = [i for i in fn.instructions() if isinstance(i, Load) and i.var == var]
    return loads[occurrence]


def test_straight_line_kill():
    _, fn, reaching = setup("int main() { int x; x = 1; x = 2; return x; }")
    load = load_of(fn, "x")
    defs = reaching.reaching_before(load, "x")
    stores = [d for d in defs if isinstance(d.instr, Store)]
    assert len(stores) == 1  # x=2 killed x=1


def test_branch_merges_definitions():
    _, fn, reaching = setup(
        "int main() { int x; int c; if (c) x = 1; else x = 2; return x; }"
    )
    load = load_of(fn, "x")
    defs = [d for d in reaching.reaching_before(load, "x") if not d.is_entry]
    assert len(defs) == 2


def test_if_without_else_keeps_prior_def():
    _, fn, reaching = setup(
        "int main() { int x; int c; x = 1; if (c) x = 2; return x; }"
    )
    load = load_of(fn, "x")
    defs = [d for d in reaching.reaching_before(load, "x") if not d.is_entry]
    assert len(defs) == 2


def test_loop_back_edge_brings_defs_around():
    _, fn, reaching = setup(
        "int main() { int i; for (i = 0; i < 3; i = i + 1) { } return 0; }"
    )
    # The header's load of i sees both the init and the step definition.
    load = load_of(fn, "i")
    defs = [d for d in reaching.reaching_before(load, "i") if not d.is_entry]
    assert len(defs) == 2


def test_entry_definitions_for_params():
    _, fn, reaching = setup("int f(int p) { return p; }", fn="f")
    load = load_of(fn, "p")
    defs = reaching.reaching_before(load, "p")
    assert len(defs) == 1 and defs[0].is_entry


def test_entry_definitions_for_globals():
    _, fn, reaching = setup("global int G; int main() { return G; }")
    load = load_of(fn, "G")
    defs = reaching.reaching_before(load, "G")
    assert len(defs) == 1 and defs[0].is_entry


def test_global_store_kills_entry():
    _, fn, reaching = setup("global int G; int main() { G = 1; return G; }")
    load = load_of(fn, "G")
    defs = reaching.reaching_before(load, "G")
    assert len(defs) == 1 and not defs[0].is_entry


def test_array_store_is_may_def():
    _, fn, reaching = setup(
        "global int a[4]; int main() { a[0] = 1; return a[1]; }"
    )
    from repro.ir import LoadElem

    load = next(i for i in fn.instructions() if isinstance(i, LoadElem))
    defs = reaching.reaching_before(load, "a")
    # Entry def survives (may-def doesn't kill) plus the element store.
    kinds = sorted(d.is_entry for d in defs)
    assert kinds == [False, True]
    assert any(d.is_may for d in defs)


def test_call_mod_set_injects_may_def():
    src = "global int G; void f() { G = 1; } int main() { f(); return G; }"

    def mods(call: CallInstr):
        return {"G"} if call.callee == "f" else set()

    _, fn, reaching = setup(src, mods=mods)
    load = load_of(fn, "G")
    defs = reaching.reaching_before(load, "G")
    assert any(isinstance(d.instr, CallInstr) and d.is_may for d in defs)
    # Entry def survives because the call def is a may-def.
    assert any(d.is_entry for d in defs)


def test_no_call_mods_by_default():
    src = "global int G; void f() { G = 1; } int main() { f(); return G; }"
    _, fn, reaching = setup(src)
    load = load_of(fn, "G")
    defs = reaching.reaching_before(load, "G")
    assert all(not isinstance(d.instr, CallInstr) for d in defs)


def test_locals_have_entry_defs_for_uninitialized_reads():
    _, fn, reaching = setup("int main() { int x; return x; }")
    load = load_of(fn, "x")
    defs = reaching.reaching_before(load, "x")
    assert len(defs) == 1 and defs[0].is_entry


def test_postorder_visits_all_blocks(paper_module):
    for fn in lower_module(paper_module).functions.values():
        po = postorder(fn)
        assert set(po) == set(fn.blocks)


def test_reverse_postorder_starts_at_entry(paper_module):
    for fn in lower_module(paper_module).functions.values():
        rpo = reverse_postorder(fn)
        assert rpo[0] is fn.entry


def test_rpo_predecessor_property():
    """In an acyclic region, all preds appear before a block in RPO."""
    _, fn, _ = setup("int main() { int x; if (x) x = 1; else x = 2; return 0; }")
    rpo = reverse_postorder(fn)
    index = {b: i for i, b in enumerate(rpo)}
    for block in fn.blocks:
        for pred in block.preds:
            # No back edges in this CFG, so property must hold strictly.
            assert index[pred] < index[block]
