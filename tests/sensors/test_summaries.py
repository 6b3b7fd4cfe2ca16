"""Direct tests of bottom-up function summaries (§3.3, §3.5)."""

import pytest

from repro.callgraph import build_call_graph, preprocess_call_graph
from repro.frontend.parser import parse_source
from repro.sensors.asttools import compute_shape
from repro.sensors.extern import default_extern_registry
from repro.sensors.summaries import compute_summaries


def summaries_of(src):
    module = parse_source(src)
    shapes = {fn.name: compute_shape(fn) for fn in module.functions}
    cg = build_call_graph(module, shapes)
    prep = preprocess_call_graph(cg)
    return compute_summaries(module, shapes, cg, prep, default_extern_registry())


class TestWorkloadSummaries:
    def test_constant_work_function(self):
        table = summaries_of(
            """
            void f() { int i; for (i = 0; i < 10; i = i + 1) compute_units(5); }
            int main() { f(); return 0; }
            """
        )
        s = table.summaries["f"].workload
        assert s.fixed
        assert s.params == set() and s.globals == set()

    def test_param_driven_work(self):
        table = summaries_of(
            """
            void f(int n) { int i; for (i = 0; i < n; i = i + 1) compute_units(5); }
            int main() { f(3); return 0; }
            """
        )
        s = table.summaries["f"].workload
        assert s.fixed
        assert s.params == {"n"}

    def test_global_driven_work(self):
        table = summaries_of(
            """
            global int N = 8;
            void f() { int i; for (i = 0; i < N; i = i + 1) compute_units(5); }
            int main() { f(); return 0; }
            """
        )
        assert table.summaries["f"].workload.globals == {"N"}

    def test_workload_dep_propagates_through_callee(self):
        table = summaries_of(
            """
            void inner(int k) { int i; for (i = 0; i < k; i = i + 1) compute_units(2); }
            void outer(int n) { inner(n + 1); }
            int main() { outer(3); return 0; }
            """
        )
        assert table.summaries["outer"].workload.params == {"n"}

    def test_rank_source_poisons_workload(self):
        table = summaries_of(
            """
            global int c = 0;
            void f() {
                int i; int r;
                r = MPI_Comm_rank();
                for (i = 0; i < r + 1; i = i + 1) c = c + 1;
            }
            int main() { f(); return 0; }
            """
        )
        assert table.summaries["f"].workload.rank

    def test_undescribed_extern_poisons_workload(self):
        table = summaries_of(
            """
            void f() { mystery(); }
            int main() { f(); return 0; }
            """
        )
        assert table.summaries["f"].workload.nonfixed

    def test_recursive_function_never_fixed(self):
        table = summaries_of(
            """
            int f(int n) { if (n) return f(n - 1); return 0; }
            int main() { f(2); return 0; }
            """
        )
        assert table.summaries["f"].never_fixed
        assert table.summaries["f"].workload.nonfixed


class TestReturnSummaries:
    def test_constant_return(self):
        table = summaries_of("int f() { return 7; } int main() { f(); return 0; }")
        s = table.summaries["f"].ret
        assert s.fixed and not s.params and not s.globals

    def test_param_return(self):
        table = summaries_of("int f(int x) { return x * 2; } int main() { f(1); return 0; }")
        assert table.summaries["f"].ret.params == {"x"}

    def test_rank_return(self):
        table = summaries_of(
            "int me() { return MPI_Comm_rank(); } int main() { me(); return 0; }"
        )
        assert table.summaries["me"].ret.rank

    def test_rand_return_nonfixed(self):
        table = summaries_of("int r() { return rand(); } int main() { r(); return 0; }")
        assert table.summaries["r"].ret.nonfixed


class TestModSets:
    def test_direct_global_store(self):
        table = summaries_of(
            "global int G; void f() { G = 1; } int main() { f(); return 0; }"
        )
        assert table.summaries["f"].mods == {"G"}

    def test_transitive_mods(self):
        table = summaries_of(
            """
            global int G;
            void leaf() { G = 1; }
            void mid() { leaf(); }
            int main() { mid(); return 0; }
            """
        )
        assert table.summaries["mid"].mods == {"G"}
        assert table.summaries["main"].mods == {"G"}

    def test_array_global_mod(self):
        table = summaries_of(
            "global int a[4]; void f() { a[0] = 1; } int main() { f(); return 0; }"
        )
        assert table.summaries["f"].mods == {"a"}

    def test_recursive_mods_converge(self):
        table = summaries_of(
            """
            global int G;
            int f(int n) { G = G + 1; if (n) f(n - 1); return 0; }
            int main() { f(2); return 0; }
            """
        )
        assert table.summaries["f"].mods == {"G"}


class TestCategoryFlags:
    def test_direct_net(self):
        table = summaries_of("void f() { MPI_Barrier(); } int main() { f(); return 0; }")
        assert table.summaries["f"].contains_net
        assert not table.summaries["f"].contains_io

    def test_transitive_io(self):
        table = summaries_of(
            """
            void w() { fwrite(8); }
            void mid() { w(); }
            int main() { mid(); return 0; }
            """
        )
        assert table.summaries["mid"].contains_io
        assert table.summaries["main"].contains_io

    def test_pure_compute_neither(self):
        table = summaries_of("void f() { compute_units(5); } int main() { f(); return 0; }")
        s = table.summaries["f"]
        assert not s.contains_net and not s.contains_io
