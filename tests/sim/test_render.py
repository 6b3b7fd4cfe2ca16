"""The per-program scalar core: entry points, charge folding, generator shape.

The differential suites (``test_bytecode_equiv``, ``test_lockstep_equiv``,
``tests/properties/test_interp_differential``) hold the bits; this file
holds what is particular to rendering — that every pc the lockstep tier
parks a lane at is a block leader, that folding charges across a block
moves no flush amount, and the shapes a renderer gets wrong first.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.api import compile_and_instrument
from repro.errors import InterpError
from repro.frontend import parse_source
from repro.sensors.extern import default_extern_registry
from repro.sim.bytecode import compile_module, ops
from repro.sim.bytecode.dispatch import (
    NEEDS_FULL_BATCH,
    OP_TABLE,
    SPILLS_IN_PLACE,
    ScalarState,
)
from repro.sim.bytecode.render import core_source
from repro.sim.engine import Simulator
from repro.sim.hooks import NullHooks, RuntimeHooks
from repro.sim.lockstep.runner import LockstepRunner
from repro.sim.lockstep.vm import FusedVM
from repro.sim.machine import MachineConfig
from repro.workloads import all_workloads
from tests.sim.test_lockstep_equiv import _DEFAULT_FAULT, _FAULTS, _divergence_program

# -- (a) parked lanes resume at leaders ---------------------------------------


def _parked_entries(monkeypatch, module, machine, **sim_kwargs):
    """Run under lockstep; return every (function, pc) a drained lane or one
    of its saved frames was parked at."""
    parked = []
    on_spill = LockstepRunner.on_spill

    def recording(self, states, blocked):
        for st in states:
            parked.append((st.fc, st.pc))
            parked.extend((frame[4], frame[2]) for frame in st.stack)
        return on_spill(self, states, blocked)

    monkeypatch.setattr(LockstepRunner, "on_spill", recording)
    Simulator(module, machine, engine="lockstep", **sim_kwargs).run()
    return parked


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_workload_lanes_park_only_at_leaders(name, monkeypatch):
    wl = all_workloads()[name]
    static = compile_and_instrument(wl.source())
    parked = _parked_entries(
        monkeypatch,
        static.program.module,
        wl.machine(n_ranks=4, ranks_per_node=2),
        faults=_FAULTS.get(name, _DEFAULT_FAULT),
        sensors=static.program.sensors,
    )
    assert all(pc in fc.leaders for fc, pc in parked)
    if name == "LU":  # the workload known to drain and re-fuse
        assert parked


def test_forced_divergence_parks_only_at_leaders(monkeypatch):
    parked = _parked_entries(
        monkeypatch,
        parse_source(_divergence_program(frozenset({1, 5}))),
        MachineConfig(n_ranks=8, ranks_per_node=4),
    )
    assert parked
    assert all(pc in fc.leaders for fc, pc in parked)


def test_every_op_that_can_drain_in_place_is_a_leader():
    """A ``FusedVM`` handler that spills re-executes its op on the scalar
    tier, so the op's own pc must be an entry point of the rendered core."""
    for spec in OP_TABLE:
        if spec.handler is None:
            continue
        if "_spill(" in inspect.getsource(getattr(FusedVM, spec.handler)):
            assert (
                spec.fuse in NEEDS_FULL_BATCH
                or spec.fuse == "call"
                or set(spec.codes) <= SPILLS_IN_PLACE
            ), spec.name


def _interp_and_program(src: str):
    sim = Simulator(parse_source(src), MachineConfig(n_ranks=1, ranks_per_node=1))
    return sim._build_interps(NullHooks())[0], sim._compiled_program()


def test_resume_off_a_leader_raises_naming_function_and_pc():
    interp, program = _interp_and_program(
        "int main() { int i; i = 1; i = i + 2; i = i * 3; return i; }"
    )
    fc = program.funcs[0]
    off = next(pc for pc in range(len(fc.code)) if pc not in fc.leaders)

    def state(pc, stack):
        return ScalarState([], fc, fc.code, list(fc.proto), pc, stack, False)

    with pytest.raises(InterpError, match=rf"'main' at pc {off}\b.*leader"):
        next(interp.resume(state(off, [])))
    saved = (fc.code, list(fc.proto), off, 0, fc, False)
    with pytest.raises(InterpError, match=rf"'main' at pc {off}\b.*leader"):
        next(interp.resume(state(0, [saved])))


# -- (b) folding charges per block moves nothing observable --------------------

#: plain statements, foldable ``compute_units`` (12; 2.5 doubles to 5), the
#: fractional path (0.3, 0.25), a variable amount, and every kind of flush
#: point between them: a clock read, probes, a collective, a call, a loop
_FOLDING_SRC = """
global int n = 3;
int work(int k) {
    compute_units(12);
    k = k + 1;
    compute_units(k);
    return k;
}
int main() {
    int i; int k; float t;
    k = 4;
    vs_tick(1);
    i = 1;
    compute_units(12);
    i = i + 1;
    compute_units(0.3);
    i = i + 2;
    compute_units(k);
    compute_units(2.5);
    t = MPI_Wtime();
    compute_units(12);
    i = i * 2;
    vs_tock(1);
    compute_units(7);
    vs_tick(2);
    compute_units(0.25);
    MPI_Allreduce(4);
    compute_units(12);
    k = work(k);
    vs_tock(2);
    for (i = 0; i < n; i = i + 1) {
        vs_tick(3);
        compute_units(12);
        k = k + i;
        compute_units();
        vs_tock(3);
    }
    compute_units(1);
    return 0;
}
"""


class _Records(RuntimeHooks):
    def __init__(self) -> None:
        self.records = []

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        self.records.append((rank, sensor_id, t_start, t_end, pmu.instructions))


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
def test_folded_charges_match_the_ast_tier(n_ranks):
    module = parse_source(_FOLDING_SRC)
    machine = MachineConfig(n_ranks=n_ranks, ranks_per_node=2)
    runs = {}
    for engine in ("ast", "bytecode"):
        hooks = _Records()
        result = Simulator(module, machine, engine=engine).run(hooks)
        runs[engine] = (result, hooks.records)
    assert runs["bytecode"] == runs["ast"]
    assert len(runs["ast"][1]) == 5 * n_ranks


def test_the_folding_program_folds_what_it_should():
    program = compile_module(parse_source(_FOLDING_SRC), default_extern_registry())
    source, _bound = core_source(program)
    cu = sum(ins[0] == ops.CU for fc in program.funcs for ins in fc.code)
    # compute_units(12) x5, (2.5), (7), (1) and () fold into their block's one
    # integer add; (0.3), (0.25) and the two variable amounts keep CU's body
    assert cu == 13
    assert source.count("units = max(0.0, float(regs[") == 4
    charges = sum(ins[0] == ops.CHARGE for fc in program.funcs for ins in fc.code)
    integer_adds = len(re.findall(r"pend_h \+= \d+\n", source))
    assert integer_adds < charges + 9


# -- (c) shapes ----------------------------------------------------------------


def test_a_program_without_mpi_still_renders_a_generator():
    src = "global int g; int main() { int i; i = 2; g = i * 21; return 0; }"
    interp, program = _interp_and_program(src)
    assert "yield MpiRequest" not in core_source(program)[0]
    assert inspect.isgeneratorfunction(program.core())
    assert list(interp.run()) == []
    module = parse_source(src)
    machine = MachineConfig(n_ranks=2, ranks_per_node=2)
    assert (
        Simulator(module, machine, engine="bytecode").run()
        == Simulator(module, machine, engine="ast").run()
    )


def test_operand_substitution_leaves_keyword_arguments_alone():
    """``COLL``/``P2P`` build ``MpiRequest(..., op=engine_op, ...)``: the
    operand named ``op`` is substituted, the keyword is not."""
    src = "int main() { MPI_Barrier(); MPI_Sendrecv(0, 8); return 0; }"
    _interp, program = _interp_and_program(src)
    source, _bound = core_source(program)
    assert source.count("op=engine_op") == 2
    compile(source, "<scalar-core>", "exec")


def test_the_core_is_rendered_lazily_and_owned_by_its_program():
    _interp, program = _interp_and_program("int main() { return 0; }")
    assert program._core is None
    core = program.core()
    assert program.core() is core
    assert "core" not in core.__globals__  # no cycle: freed with the program
