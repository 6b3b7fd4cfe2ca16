"""The opcode table is the one description of every opcode.

Two contracts over :data:`repro.sim.bytecode.dispatch.OP_TABLE`:

* **completeness** — every opcode constant of ``bytecode/ops.py`` has exactly
  one table entry, renders into the per-program scalar core from that
  entry's body, and has a branch in both of the lockstep tier's rendered
  dispatch chains (the full-width loop and the masked loop);
* **fuse classes are behaviour** — an op reached under a partial lane mask
  drains the batch at that op if and only if its fuse class says it needs
  the full batch (plus the documented per-op drains: a divergent return),
  so what ``disassemble(fuse=True)`` prints is what the VM does.
"""

from __future__ import annotations

import ast
import re

import pytest

from repro.frontend import parse_source
from repro.sensors.extern import ExternModel, ExternRegistry
from repro.sim.bytecode import compile_module, disasm, ops
from repro.sim.bytecode.dispatch import (
    NEEDS_FULL_BATCH,
    OP_SPECS,
    OP_TABLE,
    fuse_class,
)
from repro.sim.bytecode.render import _TEMPLATES, _Renderer
from repro.sim.engine import Simulator
from repro.sim.lockstep.vm import FusedVM, render_loop
from repro.sim.machine import MachineConfig

N_RANKS = 4


# -- (a) completeness ---------------------------------------------------------


def test_every_opcode_has_exactly_one_table_entry():
    listed = [code for spec in OP_TABLE for code in spec.codes]
    assert sorted(listed) == sorted(ops.NAMES)
    assert len(listed) == len(set(listed))
    assert set(OP_SPECS) == set(ops.NAMES)


def _chain_tests_every_opcode(source: str) -> None:
    tests = re.findall(r"^ +(?:el)?if (op == \d+(?: or op == \d+)*):  # \w+$", source, re.M)
    assert len(tests) == len(OP_TABLE)
    dispatched = [int(n) for test in tests for n in re.findall(r"\d+", test)]
    assert sorted(dispatched) == sorted(ops.NAMES)


def _every_opcode_renders_from_its_body() -> None:
    """The scalar core has no chain: an instruction *is* its ``OpSpec.body``.
    Undoing the placeholders (and the ``continue`` that closes a suite which
    sets ``pc``) gives the body back, and a rendered instruction is code."""
    assert set(_TEMPLATES) == set(ops.NAMES)
    for op in ops.NAMES:
        template = _TEMPLATES[op]
        lines = [ln for ln in template.split("\n") if ln.strip() != "continue"]
        restored = re.sub(r"__(a|b|c|op)__", r"\1", "\n".join(lines))
        restored = restored.replace("__here__", "pc - 1").replace("__next__", "pc")
        body = OP_SPECS[op].body.replace("__RET__", str(ops.RET))
        assert restored == ast.unparse(ast.parse(body)), ops.NAMES[op]
        renderer = _Renderer()
        renderer.instruction(op, 1, abs, (2, 3), 7, "        ")
        rendered = "\n".join(renderer.lines)
        assert "__" not in rendered and "abs" not in rendered, ops.NAMES[op]
        compile(f"def f():\n    while True:\n{rendered}\n    yield", "<op>", "exec")


@pytest.mark.parametrize(
    "check",
    [
        _every_opcode_renders_from_its_body,
        lambda: _chain_tests_every_opcode(render_loop(False)),
        lambda: _chain_tests_every_opcode(render_loop(True)),
    ],
    ids=["scalar-core", "full-width", "masked"],
)
def test_every_opcode_is_dispatched_by_every_loop(check):
    check()


def test_handlers_exist_and_full_batch_ops_name_one():
    for spec in OP_TABLE:
        if spec.fuse in NEEDS_FULL_BATCH:
            assert spec.handler is not None, spec.name
        if spec.handler is not None:
            assert callable(getattr(FusedVM, spec.handler)), spec.name


def test_disassembler_notes_cover_exactly_the_draining_classes():
    assert set(disasm._FUSE_NOTES) == NEEDS_FULL_BATCH


# -- (b) fuse classes are behaviour -------------------------------------------

#: the one extern the programs below call (everything else is an intrinsic)
_EXTERNS = ExternRegistry({"crunch": ExternModel(name="crunch", base_cost=2.0)})


def _masked_region_ops(program) -> set[int]:
    """Opcodes between main's first varying ``if`` and its merge point, plus
    every opcode of the functions that region calls directly."""
    main = program.funcs[program.func_index["main"]]
    branch = min(pc for pc, (kind, _m, _h) in main.cf.items() if kind == "if")
    merge = main.cf[branch][1]
    region = list(main.code[branch + 1:merge])
    seen = set()
    for op, _a, b, _c in list(region):
        if op == ops.CALL:
            region += program.funcs[b].code
    for op, _a, _b, _c in region:
        seen.add(op)
    return seen


def _run_recording_drains(src: str, monkeypatch):
    """Run under lockstep (checked against bytecode); return the opcodes the
    batch drained at while a lane mask was active."""
    drained_at = []
    spill = FusedVM._spill

    def recording_spill(self, cur_pc, blocked=None):
        if self.M is not None:
            drained_at.append(self.code[cur_pc][0])
        return spill(self, cur_pc, blocked)

    monkeypatch.setattr(FusedVM, "_spill", recording_spill)
    module = parse_source(src)
    machine = MachineConfig(n_ranks=N_RANKS, ranks_per_node=2)
    result = Simulator(module, machine, engine="lockstep", externs=_EXTERNS).run()
    reference = Simulator(module, machine, engine="bytecode", externs=_EXTERNS).run()
    assert result == reference
    return drained_at


#: every vector / branch / call-class opcode inside one ``if (r == 0)``; the
#: loop lives in a callee because a uniform loop's back edge is unstructured
#: (and drains) in the function that owns the ``if`` frame
_MASKABLE_SRC = """
global int g = 3;
global int shadowed = 5;
global float table[4];
int helper(int x) {
    int k;
    k = 0;
    while (k < 2) { k = k + 1; }
    if (x > 1) { return x; }
    return 7;
}
int ten() { return 10; }
int main() {
    int r; int n; int i; int v; float f; int local[4]; funcptr p;
    r = MPI_Comm_rank();
    p = &ten;
    if (r == 0) {
        int scratch[2];
        n = MPI_Comm_size();
        if (n > 0) { int late; late = 1; }
        v = late;
        v = r + n - 1;
        v = v * 2 / 3 % 5;
        v = -v;
        f = sqrt(2.0 * n);
        i = (v < n) + (v <= n) + (v > n) + (v >= n) + (v == n) + (v != n);
        i = (i && v) + (i || v) + !i;
        g = g + i;
        int shadowed;
        shadowed = g;
        g = shadowed;
        local[1] = v;
        table[2] = local[1] + table[0];
        v = rand() + gethostname() + MPI_Comm_rank();
        compute_units(v);
        i = 1;
        if (i <= 1) { v = v + 1; }
        if (i > 5) { v = 0; }
        if (i >= 9) { v = 0; }
        if (i == 7) { v = 0; }
        if (i != 1) { v = v + 2; }
        if (v) { v = v + 0; }
        v = helper(v);
    }
    MPI_Barrier();
    return 0;
}
"""


def test_maskable_ops_run_under_a_partial_mask_without_draining(monkeypatch):
    program = compile_module(parse_source(_MASKABLE_SRC), _EXTERNS)
    reached = _masked_region_ops(program)
    maskable = {
        code for spec in OP_TABLE if spec.fuse not in NEEDS_FULL_BATCH
        for code in spec.codes
    }
    # RESFP only ever precedes a CALLIND (which drains); it has its own case.
    assert maskable - reached == {ops.RESFP}
    assert not any(fuse_class(op) in NEEDS_FULL_BATCH for op in reached)
    drained_at = _run_recording_drains(_MASKABLE_SRC, monkeypatch)
    assert drained_at == []


#: one statement per full-batch opcode, each reached under ``if (r == 0)``
_FULL_BATCH_STATEMENTS = {
    ops.COLL: "MPI_Barrier();",
    ops.P2P: "MPI_Sendrecv(1, 8);",
    ops.TICKOP: "vs_tick(1);",
    ops.TOCKOP: "vs_tock(1);",
    ops.IOOP: "printf(1);",
    ops.WTIME: "f = MPI_Wtime();",
    ops.CLOCKOP: "v = clock();",
    ops.EXTCALL: "crunch(2);",
    ops.CALLIND: "v = p();",
}

_FULL_BATCH_TEMPLATE = """
int ten() {{ return 10; }}
int main() {{
    int r; int v; float f; funcptr p;
    r = MPI_Comm_rank();
    p = &ten;
    v = 0;
    vs_tick(1);
    if (r == 0) {{
        v = v + 1;
        {statement}
    }}
    {epilogue}
    return v;
}}
"""


def test_full_batch_statements_cover_every_draining_opcode():
    draining = {
        code for spec in OP_TABLE if spec.fuse in NEEDS_FULL_BATCH
        for code in spec.codes
    }
    assert set(_FULL_BATCH_STATEMENTS) == draining


@pytest.mark.parametrize(
    "op", sorted(_FULL_BATCH_STATEMENTS), ids=lambda op: ops.NAMES[op]
)
def test_full_batch_op_under_a_partial_mask_drains_at_that_op(op, monkeypatch):
    # The other lanes must post the matching rendezvous / close their tick
    # for the program to terminate, in either engine.
    epilogue = {
        ops.COLL: "if (r != 0) { MPI_Barrier(); } vs_tock(1);",
        ops.P2P: "if (r == 1) { MPI_Sendrecv(0, 8); } vs_tock(1);",
        ops.TOCKOP: "if (r != 0) { vs_tock(1); }",
    }.get(op, "vs_tock(1);")
    src = _FULL_BATCH_TEMPLATE.format(
        statement=_FULL_BATCH_STATEMENTS[op], epilogue=epilogue
    )
    program = compile_module(parse_source(src), _EXTERNS)
    assert op in _masked_region_ops(program)
    drained_at = _run_recording_drains(src, monkeypatch)
    assert drained_at == [op]


def test_resfp_runs_masked_and_the_indirect_call_after_it_drains(monkeypatch):
    src = _FULL_BATCH_TEMPLATE.format(statement="v = p();", epilogue="vs_tock(1);")
    program = compile_module(parse_source(src), _EXTERNS)
    assert ops.RESFP in _masked_region_ops(program)
    drained_at = _run_recording_drains(src, monkeypatch)
    assert drained_at == [ops.CALLIND]


def test_divergent_return_is_the_documented_call_class_drain(monkeypatch):
    src = """
    int main() {
        int r;
        r = MPI_Comm_rank();
        if (r == 0) { return 1; }
        r = r + 1;
        return 0;
    }
    """
    assert fuse_class(ops.RET) not in NEEDS_FULL_BATCH
    drained_at = _run_recording_drains(src, monkeypatch)
    assert drained_at and set(drained_at) <= {ops.RET, ops.RETK}
