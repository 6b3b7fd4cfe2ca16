"""Use–def chain tests: a read's reaching definitions lead to the
expressions that produced its value."""

from repro.frontend import ast_nodes as A
from repro.frontend.parser import parse_source
from repro.sensors.reaching import compute_reaching_definitions

from tests.dataflow.test_reaching import reads


def chains_for(src, fn="main"):
    module = parse_source(src)
    f = module.function(fn)
    return f, compute_reaching_definitions(f, module.global_names())


def test_a_store_links_to_the_expression_it_stores():
    fn, chains = chains_for("int main() { int x; x = 1 + 2; return x; }")
    (d,) = chains.reaching(reads(fn, "x")[0])
    assert isinstance(d.node, A.Assign) and isinstance(d.node.value, A.BinOp)


def test_every_read_has_a_definition(paper_module):
    for fn in paper_module.functions:
        chains = compute_reaching_definitions(fn, paper_module.global_names())
        for read in reads(fn) + reads(fn, kind=A.ArrayRef):
            assert chains.reaching(read)


def test_defs_for_load_links_to_store():
    fn, chains = chains_for("int main() { int x; x = 7; return x; }")
    defs = chains.reaching(reads(fn, "x")[0])
    assert len(defs) == 1
    assert isinstance(defs[0].node, A.Assign) and not defs[0].is_may


def test_defs_for_array_load():
    fn, chains = chains_for("global int a[4]; int main() { a[0] = 1; return a[2]; }")
    (load,) = reads(fn, "a", kind=A.ArrayRef)
    defs = chains.reaching(load)
    assert any(d.is_may for d in defs)


def test_defs_before_arbitrary_instr():
    fn, chains = chains_for("int main() { int x; int y; x = 1; y = 2; return x; }")
    defs = chains.reaching(reads(fn, "x")[0], "y")
    assert len(defs) >= 1
