"""Interpreter edge cases beyond the core semantics tests."""

import pytest

from repro.errors import InterpError
from repro.frontend.parser import parse_source
from repro.sim import IoDegradation, MachineConfig, Simulator
from repro.sim.hooks import NullHooks, RawRecorder, TeeHooks
from repro.sim.interp import RankInterp
from repro.sim.noise import NoiseConfig


def quiet_machine(n_ranks=1, ranks_per_node=1):
    return MachineConfig(
        n_ranks=n_ranks,
        ranks_per_node=ranks_per_node,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )


def run_single(src):
    interp = RankInterp(
        module=parse_source(src),
        rank=0,
        n_ranks=1,
        machine=quiet_machine(),
        faults=(),
        hooks=NullHooks(),
    )
    for _ in interp.run():
        raise AssertionError("unexpected MPI block")
    return interp


def test_funcptr_through_global():
    src = """
    global funcptr handler;
    global int g;
    int five() { return 5; }
    int main() { handler = &five; g = handler(); return 0; }
    """
    assert run_single(src).globals["g"] == 5


def test_funcptr_reassignment():
    src = """
    global int g;
    int a() { return 1; }
    int b() { return 2; }
    int main() {
        funcptr p;
        p = &a;
        g = p();
        p = &b;
        g = g * 10 + p();
        return 0;
    }
    """
    assert run_single(src).globals["g"] == 12


def test_missing_argument_defaults_zero():
    src = """
    global int g;
    int f(int x, int y) { return x + y; }
    int main() { g = f(7); return 0; }
    """
    assert run_single(src).globals["g"] == 7


def test_extra_arguments_ignored():
    src = """
    global int g;
    int f(int x) { return x; }
    int main() { g = f(3, 99, 100); return 0; }
    """
    assert run_single(src).globals["g"] == 3


def test_deep_recursion_works():
    # Each simulated frame costs several Python frames through the
    # yield-from chain, so keep the depth moderate.
    src = """
    global int g;
    int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
    int main() { g = down(80); return 0; }
    """
    assert run_single(src).globals["g"] == 80


def test_probe_mismatch_raises():
    src = "int main() { vs_tock(1); return 0; }"
    with pytest.raises(InterpError, match="without matching"):
        run_single(src)


def test_missing_entry_function():
    from repro.errors import InterpError

    interp = RankInterp(
        module=parse_source("void helper() { }"),
        rank=0,
        n_ranks=1,
        machine=quiet_machine(),
        faults=(),
        hooks=NullHooks(),
    )
    with pytest.raises(InterpError, match="no entry function"):
        for _ in interp.run():
            pass


def test_string_arguments_pass_through():
    interp = run_single('int main() { printf("hello %d"); return 0; }')
    assert interp.clock.now > 0  # IO op advanced time


def test_tee_hooks_order_and_fanout():
    rec1, rec2 = RawRecorder(), RawRecorder()
    tee = TeeHooks(rec1, None, rec2)
    assert len(tee.hooks) == 2
    src = """
    void q() { compute_units(5); }
    int main() {
        int i;
        for (i = 0; i < 3; i = i + 1) q();
        return 0;
    }
    """
    from repro.api import compile_and_instrument

    static = compile_and_instrument(src)
    Simulator(static.program.module, quiet_machine(), sensors=static.program.sensors).run(tee)
    assert len(rec1.records) == len(rec2.records) == 3


def test_io_degradation_stretches_io_only():
    src = "int main() { compute_units(100); fwrite(100); return 0; }"
    module = parse_source(src)
    healthy = Simulator(module, quiet_machine()).run().total_time
    degraded = Simulator(
        module,
        quiet_machine(),
        faults=(IoDegradation(t0=0.0, t1=1e12, factor=0.25),),
    ).run().total_time
    io_cost_healthy = 50.0 + 0.1 * 100  # io_alpha + io_beta * size
    assert degraded - healthy == pytest.approx(io_cost_healthy * 3.0, rel=0.01)


def test_rank_scoped_raw_recorder():
    recorder = RawRecorder(ranks={1})
    src = """
    void q() { compute_units(5); }
    int main() {
        int i;
        for (i = 0; i < 4; i = i + 1) q();
        MPI_Barrier();
        return 0;
    }
    """
    from repro.api import compile_and_instrument

    static = compile_and_instrument(src)
    Simulator(
        static.program.module, quiet_machine(n_ranks=4, ranks_per_node=2),
        sensors=static.program.sensors,
    ).run(recorder)
    assert {r[0] for r in recorder.records} == {1}
