"""Call-graph preprocessing tests (Fig. 10)."""

from graphlib import TopologicalSorter

from repro.callgraph import preprocess_call_graph
from repro.frontend.parser import parse_source

from tests.callgraph.test_graph import build


def prep_of(src):
    cg = build(parse_source(src))
    return cg, preprocess_call_graph(cg)


def edge_count(graph):
    return sum(len(callees) for callees in graph.values())


def test_self_recursion_removed():
    _, prep = prep_of("int f(int n) { if (n) f(n - 1); return n; } int main() { f(3); return 0; }")
    assert "f" in prep.recursive_functions
    assert "f" not in prep.pruned["f"]
    assert ("f", "f") in prep.removed_edges


def test_mutual_recursion_removed():
    src = """
    int odd(int n) { if (n) return even(n - 1); return 0; }
    int even(int n) { if (n) return odd(n - 1); return 1; }
    int main() { even(4); return 0; }
    """
    _, prep = prep_of(src)
    assert prep.recursive_functions == {"odd", "even"}
    assert "even" not in prep.pruned["odd"]
    assert "odd" not in prep.pruned["even"]


def test_pruned_graph_is_acyclic():
    src = """
    int a(int n) { return b(n); }
    int b(int n) { if (n) return a(n - 1); return 0; }
    int main() { a(2); b(2); return 0; }
    """
    _, prep = prep_of(src)
    # static_order raises graphlib.CycleError on a cycle
    assert set(TopologicalSorter(prep.pruned).static_order()) == set(prep.pruned)


def test_topological_order_callee_first():
    src = "void c() { } void b() { c(); } void a() { b(); } int main() { a(); return 0; }"
    _, prep = prep_of(src)
    order = prep.order
    assert order.index("c") < order.index("b") < order.index("a") < order.index("main")


def test_pointer_targets_marked():
    src = "void f() { } int main() { funcptr p; p = &f; p(); return 0; }"
    _, prep = prep_of(src)
    assert prep.pointer_targets == {"f"}
    assert "f" in prep.never_fixed()


def test_non_recursive_untouched():
    src = "void f() { } int main() { f(); return 0; }"
    cg, prep = prep_of(src)
    assert prep.recursive_functions == set()
    assert edge_count(prep.pruned) == edge_count(cg.graph)


def test_never_fixed_combines_both():
    src = """
    int r(int n) { if (n) r(n - 1); return 0; }
    void t() { }
    int main() { funcptr p; p = &t; r(1); p(); return 0; }
    """
    _, prep = prep_of(src)
    assert prep.never_fixed() == {"r", "t"}


def test_order_contains_all_functions(paper_module):
    prep = preprocess_call_graph(build(paper_module))
    assert set(prep.order) == {"foo", "main"}
    assert prep.order.index("foo") < prep.order.index("main")
