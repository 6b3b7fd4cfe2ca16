"""Call-graph construction tests."""

from repro.callgraph import build_call_graph
from repro.frontend.parser import parse_source
from repro.sensors.asttools import compute_shape


def build(module):
    return build_call_graph(module, {fn.name: compute_shape(fn) for fn in module.functions})


def graph_of(src):
    return build(parse_source(src))


def sites_between(cg, caller, callee):
    return [s for s in cg.sites_in(caller) if s.callee == callee and s.kind == "defined"]


def test_simple_edge():
    cg = graph_of("void f() { } int main() { f(); return 0; }")
    assert "f" in cg.graph["main"]


def test_every_defined_function_is_node():
    cg = graph_of("void unused() { } int main() { return 0; }")
    assert "unused" in cg.graph


def test_extern_call_recorded_not_edged():
    cg = graph_of("int main() { MPI_Barrier(); return 0; }")
    assert "MPI_Barrier" not in cg.graph["main"]
    assert any(s.callee == "MPI_Barrier" and s.kind == "extern" for s in cg.extern_sites)


def test_indirect_call_recorded_not_edged():
    cg = graph_of("void f() { } int main() { funcptr p; p = &f; p(); return 0; }")
    assert len(cg.indirect_sites) == 1
    assert cg.indirect_sites[0].kind == "indirect"
    # No edge to the spelled variable name.
    assert "p" not in cg.graph


def test_address_taken_tracked():
    cg = graph_of("void f() { } int main() { funcptr p; p = &f; return 0; }")
    assert cg.address_taken == {"f"}


def test_multiple_sites_on_one_edge():
    cg = graph_of("void f() { } int main() { f(); f(); return 0; }")
    assert len(sites_between(cg, "main", "f")) == 2


def test_callees_and_callers():
    cg = graph_of("void a() { } void b() { a(); } int main() { a(); b(); return 0; }")
    assert cg.callees_of("main") == ["a", "b"]
    assert cg.callers_of("a") == ["b", "main"]


def test_sites_in():
    cg = graph_of("void a() { } int main() { a(); MPI_Barrier(); return 0; }")
    assert len(cg.sites_in("main")) == 2


def test_paper_example_graph(paper_module):
    cg = build(paper_module)
    assert cg.callees_of("main") == ["foo"]
    assert len(sites_between(cg, "main", "foo")) == 2
