"""The scalar tier, rendered per program from :data:`OP_TABLE` bodies.

:func:`render_core` turns one :class:`ProgramCode` into one generator
function ``core(self, state)`` — what ``BytecodeInterp.run`` / ``resume``
execute.  Every instruction is its ``OpSpec.body`` with the operands
substituted, so each opcode's semantics are still written once; what the
rendering removes is the per-instruction fetch (tuple unpack, ``pc += 1``,
a position in an ``if``/``elif`` chain over opcodes)::

    while True:
        if fc is _k0:            # one section per function
            if pc < 4:           # block [0, 4)
                ...straight-line bodies of pcs 0..3...
            if pc < 9:           # block [4, 9), ends in a conditional jump
                ...
                if not regs[1] < regs[7]:
                    pc = 15
                    continue
            ...
        elif fc is _k1:
            ...

**Blocks.**  A block runs from one leader to the next
(:func:`block_leaders`).  Control enters a function section with ``pc``
set to a leader — by a taken jump, a call (0), a return, or a resumed
:class:`ScalarState` — skips every suite whose block ends at or before it,
and from there falls from suite to suite: ``pc`` is not maintained inside
or between blocks, each test only asks "was the entry point before this
block's end".  That is sound because entry is *checked* (the prologue
refuses a ``pc`` or a saved return pc that is not a leader, naming function
and pc) and every later ``pc`` is a literal jump target, 0, or a return pc
pushed by a rendered ``CALL``.

**Operands.**  ``a``/``b``/``c``/``op`` become literals (operands a literal
cannot spell — callables, extern models — are bound as names in the
function's globals); ``pc - 1`` and ``pc`` reads become the literal pc of
the instruction and of its successor, so error paths and the MPI ops'
``state.pc`` see exact values while nothing counts ``pc`` along the way.

**Charges.**  The compiler already lands each span's work as one
``CHARGE`` before every op in :data:`LANDS_CHARGES` and at every label;
a label no jump targets does not start a block, so the ``CHARGE`` ops
inside one block are summed here and emitted as one ``CHARGE`` body
before its first op in that same set, and at the block's end.  Integer
adds commute with everything they are moved across, so every flush
amount, probe instruction count and ``total_work`` is unchanged.

The function lives on its ``ProgramCode`` (see ``ProgramCode.core``):
nothing in this module holds a rendered function.
"""

from __future__ import annotations

import ast
import math
import re

from repro.errors import InterpError
from repro.sim.bytecode import ops
from repro.sim.bytecode.dispatch import (
    FUSE_CALL,
    LANDS_CHARGES,
    NEEDS_FULL_BATCH,
    OP_SPECS,
    OP_TABLE,
    SPILLS_IN_PLACE,
    UNDEF,
)
from repro.sim.interp import MpiRequest

#: body names the per-instruction substitution fills (read as ``__a__`` … in a template)
_OPERANDS = ("a", "b", "c", "op")


def _stores_pc(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(node, ast.Name) and node.id == "pc"
        for target in stmt.targets
        for node in ast.walk(target)
    )


class _Templater(ast.NodeTransformer):
    """Respells a scalar body over placeholders.

    Works on the tree, not the text, so only *reads* of the operand names
    are touched: ``pc = c`` keeps its store, the tuple target of ``RET``'s
    frame pop keeps ``pc``, and the keyword in ``MpiRequest(op=engine_op)``
    is not a name at all.
    """

    def visit_BinOp(self, node):
        if ast.unparse(node) == "pc - 1":
            return ast.Name("__here__", ast.Load())
        return self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            if node.id == "pc":
                return ast.Name("__next__", ast.Load())
            if node.id in _OPERANDS:
                return ast.Name(f"__{node.id}__", ast.Load())
        return node


def _template(spec) -> str:
    """``spec.body`` with operand reads as placeholders and a ``continue``
    closing every suite that sets ``pc`` (a jump, call or return goes back
    to the block dispatch; anything else falls into the next instruction)."""
    tree = _Templater().visit(ast.parse(spec.body.replace("__RET__", str(ops.RET))))
    for node in ast.walk(tree):
        for suite in (getattr(node, "body", None), getattr(node, "orelse", None)):
            if isinstance(suite, list) and any(map(_stores_pc, suite)):
                suite.append(ast.Continue())
    return ast.unparse(tree)


#: opcode -> template text
_TEMPLATES = {code: _template(spec) for spec in OP_TABLE for code in spec.codes}

_PLACEHOLDER = re.compile(r"__(a|b|c|op|here|next)__")


#: branch-class opcode -> position in the instruction tuple of the operand
#: its body assigns to ``pc``
_JUMP_OPERAND = {
    op: " abc".index(match.group(1))
    for op, text in _TEMPLATES.items()
    if (match := re.search(r"pc = __([abc])__", text))
}


def block_leaders(code) -> frozenset:
    """The pcs at which a rendered block of ``code`` starts.

    pc 0; every jump target and the instruction after every jump; and every
    pc a :class:`ScalarState` can be parked at or a saved frame can return
    to — both the pc of and the pc after each call, return and op the
    lockstep tier only executes at full width (a masked batch drains *at*
    the op; a stalled rendezvous and a return land *after* it), plus the pc
    of each op in :data:`SPILLS_IN_PLACE`.
    """
    leaders = {0}
    for pc, ins in enumerate(code):
        op = ins[0]
        fuse = OP_SPECS[op].fuse
        if op in _JUMP_OPERAND:
            leaders.add(ins[_JUMP_OPERAND[op]])
            leaders.add(pc + 1)
        elif fuse == FUSE_CALL or fuse in NEEDS_FULL_BATCH:
            leaders.add(pc)
            leaders.add(pc + 1)
        if op in SPILLS_IN_PLACE:
            leaders.add(pc)
    leaders.discard(len(code))
    return frozenset(leaders)


def _literal(value) -> str | None:
    """Source text spelling ``value`` exactly, or None if no literal can."""
    kind = type(value)
    if value is None or kind is bool or kind is str:
        return repr(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return f"({value!r})" if value < 0 else repr(value)
    if kind is tuple:
        parts = [_literal(v) for v in value]
        if None in parts:
            return None
        return "(" + "".join(part + ", " for part in parts) + ")"
    return None


class _Renderer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        #: names bound in the rendered function's globals
        self.bound = {"MpiRequest": MpiRequest, "InterpError": InterpError, "UNDEF": UNDEF}
        self._names: dict[int, str] = {}  # id(object) -> bound name

    def bind(self, value) -> str:
        name = self._names.get(id(value))
        if name is None:
            name = self._names[id(value)] = f"_k{len(self._names)}"
            self.bound[name] = value
        return name

    def instruction(self, op, a, b, c, pc: int, indent: str) -> None:
        """Append ``OpSpec.body`` of one instruction, operands substituted."""
        values = {"a": a, "b": b, "c": c, "op": op, "here": pc, "next": pc + 1}

        def operand(match):
            value = values[match.group(1)]
            return _literal(value) or self.bind(value)

        text = _PLACEHOLDER.sub(operand, _TEMPLATES[op])
        self.lines += [indent + line for line in text.split("\n")]

    def block(self, fc, start: int, end: int, indent: str) -> None:
        charge = 0
        first_line = len(self.lines)

        def land():
            nonlocal charge
            if charge:
                self.instruction(ops.CHARGE, charge, None, None, start, indent)
                charge = 0

        for pc in range(start, end):
            op, a, b, c = fc.code[pc]
            if op == ops.CHARGE:
                charge += a
                continue
            if op in LANDS_CHARGES:
                land()
            self.instruction(op, a, b, c, pc, indent)
        land()
        if len(self.lines) == first_line:
            self.lines.append(indent + "pass")

    def function(self, fc, keyword: str) -> None:
        # The compiler ends every function in RETK, so control never falls
        # out of a section's last suite.
        self.lines.append(f"        {keyword} fc is {self.bind(fc)}:  # {fc.name}")
        starts = sorted(fc.leaders)
        for start, end in zip(starts, starts[1:] + [len(fc.code)]):
            self.lines.append(f"            if pc < {end}:")
            self.block(fc, start, end, " " * 16)


_PROLOGUE = """\
def core(self, state):
    program = self.program
    funcs = program.funcs
    func_index = program.func_index
    rank = self.rank
    clock = self.clock
    hooks = self.hooks
    rng = self._rng
    undef = UNDEF
    nmod = max(1, self.n_ranks)
    glist = state.glist
    fc = state.fc
    code = state.code
    regs = state.regs
    pc = state.pc
    stack = state.stack
    trace = state.trace
    for entry_fc, entry_pc in [(fc, pc)] + [(e[4], e[2]) for e in stack]:
        if entry_pc not in entry_fc.leaders:
            raise InterpError(
                f"rank {rank}: cannot enter {entry_fc.name!r} at pc {entry_pc}"
                ": not a block leader"
            )
    pend_h = self._pending_half
    tot_h = self._total_half
    while True:
"""

_EPILOGUE = """\
        else:  # pragma: no cover - fc is always one of the program's functions
            raise InterpError(f"rank {rank}: {fc.name!r} is not in this program")
    self._pending_half = pend_h
    self._total_half = tot_h
    self._flush()
    hooks.on_program_end(rank, clock.now)
    state.fc = fc
    state.code = code
    state.regs = regs
    state.trace = trace
    state.finished = True
    return
    yield  # a program with no MPI call still renders a generator
"""


def core_source(program) -> tuple[str, dict]:
    """Source of ``program``'s scalar core and the globals it runs in."""
    renderer = _Renderer()
    for index, fc in enumerate(program.funcs):
        renderer.function(fc, "elif" if index else "if")
    return _PROLOGUE + "\n".join(renderer.lines) + "\n" + _EPILOGUE, renderer.bound


def render_core(program):
    """The generator function ``core(self, state)`` executing ``program``."""
    source, namespace = core_source(program)
    exec(compile(source, "<scalar-core>", "exec"), namespace)
    # Popped so the function does not sit in its own globals: with no cycle
    # it is freed with the ProgramCode that holds it, not at the next gc.
    return namespace.pop("core")
