"""The opcode table: every opcode's semantics, written once.

One :data:`OP_TABLE` entry per opcode carries

* the scalar handler body (source text): the one statement of the opcode's
  semantics, from which :mod:`repro.sim.bytecode.render` renders each
  program's scalar core — one generator function per ``ProgramCode``, its
  basic blocks straight-line code with the operands substituted;
* a **fusability class** telling the lockstep tier (and the disassembler's
  ``fusability`` annotations) how the op behaves under SIMD-over-ranks
  execution; and
* optionally the name of a ``FusedVM`` **handler** method.

The lockstep tier (:mod:`repro.sim.lockstep.vm`) renders its full-width
and masked loops from this table as well; class and handler together say
how an entry renders there:

* *elementwise* (no handler): both fused bodies are lifted from the scalar
  body — operand reads become lane variables; with every operand uniform
  the scalar statements run verbatim, otherwise the same statements run
  over the active lanes; a masked result goes through the copy-on-write
  masked store;
* *lane handler* (handler, class vector/branch/call): one hand-written
  method taking the active mask (``None`` = every lane), called by both
  loops;
* *full-width only* (class in :data:`NEEDS_FULL_BATCH`): the handler runs
  at full width, and the masked loop drains the batch instead.

Bodies are written against the names of the rendered core (``regs``,
``glist``, ``pend_h``/``tot_h``, ``fc``, ``stack``, ``state`` …) and the
operand names ``a``/``b``/``c``/``op``; ``pc`` reads as the pc *after* the
instruction, so ``pc - 1`` is the instruction itself.  The core runs off
an explicit :class:`ScalarState`, which is how drained lockstep lanes
resume on a real :class:`~repro.sim.bytecode.vm.BytecodeInterp`
mid-program — at any block leader
(:func:`repro.sim.bytecode.render.block_leaders`).

Handler bodies must mirror the AST tier exactly; see the bit-identity
recipe in DESIGN.md §9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.bytecode import ops


class _Undef:
    """Sentinel for a local slot that has not been written yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNDEF"


UNDEF = _Undef()


class ScalarState:
    """Explicit machine state for one rank's scalar core.

    ``BytecodeInterp.run`` builds one per program run; the lockstep tier
    builds them mid-flight when a diverged lane leaves the fused batch.
    ``pc`` (and every saved frame's return pc) is a block leader of its
    function; the core writes it back at each MPI yield, where the lane
    may be re-fused, and not when the program finishes.
    """

    __slots__ = ("glist", "fc", "code", "regs", "pc", "stack", "trace",
                 "mpi", "finished")

    def __init__(self, glist, fc, code, regs, pc, stack, trace):
        self.glist = glist
        self.fc = fc
        self.code = code
        self.regs = regs
        self.pc = pc
        self.stack = stack  # saved caller frames: (code, regs, pc, dst, fc, trace)
        self.trace = trace
        #: (dst_reg, spelled_name, t0, size) of the in-flight MPI op, synced
        #: just before each yield so the lockstep tier can re-fuse the lane
        self.mpi = None
        self.finished = False


# Fusability classes for the lockstep tier / disassembler annotations.
FUSE_VECTOR = "vector"          # executes under any lane mask
FUSE_BRANCH = "branch"          # fusable; a varying outcome opens a mask frame
FUSE_CALL = "call"              # fusable; divergent returns force a drain
FUSE_RENDEZVOUS = "rendezvous"  # needs the full batch converged (MPI)
FUSE_OBSERVE = "observe"        # needs the full batch converged (probes/IO/clock)
FUSE_DIVERGE = "diverge"        # always drains diverged lanes (indirect calls)

#: classes the lockstep tier cannot execute under a partial lane mask: the
#: masked loop drains the batch at these ops
NEEDS_FULL_BATCH = frozenset((FUSE_RENDEZVOUS, FUSE_OBSERVE, FUSE_DIVERGE))

#: vector/branch-class ops whose ``FusedVM`` handler can still drain the
#: batch *at* the op — an unstructured jump under a lane mask, an array
#: operand that is not one uniform list, an undefined read the scalar tier
#: reports — so a drained lane re-executes them: their pcs are block leaders
SPILLS_IN_PLACE = frozenset(
    (ops.JUMP, ops.INDEX, ops.INDEXG, ops.STIDX, ops.STIDXG, ops.CHKDEF)
)


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One opcode's dispatch-table entry."""

    name: str
    codes: tuple
    fuse: str
    body: str
    #: ``FusedVM`` method executing the op; None = lifted from ``body``
    handler: str | None


def _spec(name: str, fuse: str, body: str, *extra_codes, handler=None) -> OpSpec:
    return OpSpec(
        name=name,
        codes=(getattr(ops, name),) + tuple(getattr(ops, x) for x in extra_codes),
        fuse=fuse,
        body=body,
        handler=handler,
    )


#: dispatch table, hottest first by measured execution counts over the
#: workload analogues (the lockstep tier's rendered chains test in this order)
OP_TABLE = (
    _spec("CHARGE", FUSE_VECTOR, """\
pend_h += a
tot_h += a
"""),
    _spec("ADD", FUSE_VECTOR, """\
regs[a] = regs[b] + regs[c]
"""),
    _spec("JLT_F", FUSE_BRANCH, """\
if not (regs[a] < regs[b]):
    pc = c
"""),
    _spec("JUMP", FUSE_BRANCH, """\
pc = a
""", handler="_jump"),
    _spec("CU", FUSE_VECTOR, """\
units = max(0.0, float(regs[a])) if a >= 0 else 0.0
doubled = units + units
if doubled < 1e15 and doubled == int(doubled):
    n = int(doubled)
    pend_h += n
    tot_h += n
else:
    self._pending_frac += units
    self._total_frac += units
""", handler="_cu"),
    _spec("INDEXG", FUSE_VECTOR, """\
arr = glist[b]
if type(arr) is not list:
    self._bad_array(fc, pc - 1)
regs[a] = arr[int(regs[c]) % len(arr)]
""", handler="_index"),
    _spec("LOADG", FUSE_VECTOR, """\
regs[a] = glist[b]
"""),
    _spec("MUL", FUSE_VECTOR, """\
regs[a] = regs[b] * regs[c]
"""),
    _spec("STIDXG", FUSE_VECTOR, """\
arr = glist[a]
if type(arr) is not list:
    self._bad_array(fc, pc - 1)
arr[int(regs[b]) % len(arr)] = regs[c]
""", handler="_stidx"),
    _spec("MOVE", FUSE_VECTOR, """\
regs[a] = regs[b]
"""),
    _spec("SUB", FUSE_VECTOR, """\
regs[a] = regs[b] - regs[c]
"""),
    _spec("INDEX", FUSE_VECTOR, """\
arr = regs[b]
if type(arr) is not list:
    self._bad_array(fc, pc - 1)
regs[a] = arr[int(regs[c]) % len(arr)]
""", handler="_index"),
    _spec("STIDX", FUSE_VECTOR, """\
arr = regs[a]
if type(arr) is not list:
    self._bad_array(fc, pc - 1)
arr[int(regs[b]) % len(arr)] = regs[c]
""", handler="_stidx"),
    _spec("JLE_F", FUSE_BRANCH, """\
if not (regs[a] <= regs[b]):
    pc = c
"""),
    _spec("JGT_F", FUSE_BRANCH, """\
if not (regs[a] > regs[b]):
    pc = c
"""),
    _spec("JGE_F", FUSE_BRANCH, """\
if not (regs[a] >= regs[b]):
    pc = c
"""),
    _spec("JEQ_F", FUSE_BRANCH, """\
if not (regs[a] == regs[b]):
    pc = c
"""),
    _spec("JNE_F", FUSE_BRANCH, """\
if not (regs[a] != regs[b]):
    pc = c
"""),
    _spec("JF", FUSE_BRANCH, """\
if not regs[a]:
    pc = b
"""),
    _spec("DIV", FUSE_VECTOR, """\
left = regs[b]
right = regs[c]
if right == 0:
    regs[a] = 0
elif type(left) is int and type(right) is int:
    regs[a] = (
        left // right
        if (left >= 0) == (right >= 0)
        else -((-left) // right)
    )
else:
    regs[a] = left / right
"""),
    _spec("MOD", FUSE_VECTOR, """\
right = regs[c]
regs[a] = regs[b] % right if right != 0 else 0
"""),
    _spec("LT", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] < regs[c] else 0
"""),
    _spec("LE", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] <= regs[c] else 0
"""),
    _spec("GT", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] > regs[c] else 0
"""),
    _spec("GE", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] >= regs[c] else 0
"""),
    _spec("EQ", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] == regs[c] else 0
"""),
    _spec("NE", FUSE_VECTOR, """\
regs[a] = 1 if regs[b] != regs[c] else 0
"""),
    _spec("ANDL", FUSE_VECTOR, """\
regs[a] = 1 if (regs[b] and regs[c]) else 0
"""),
    _spec("ORL", FUSE_VECTOR, """\
regs[a] = 1 if (regs[b] or regs[c]) else 0
"""),
    _spec("NEG", FUSE_VECTOR, """\
regs[a] = -regs[b]
"""),
    _spec("NOTL", FUSE_VECTOR, """\
regs[a] = 0 if regs[b] else 1
"""),
    _spec("STOREG", FUSE_VECTOR, """\
glist[a] = regs[b]
"""),
    _spec("CHKDEF", FUSE_VECTOR, """\
if regs[a] is undef:
    raise InterpError(
        f"rank {rank}: read of undefined variable "
        f"{fc.names.get(pc - 1, '?')!r}"
    )
""", handler="_chkdef"),
    _spec("LOADX", FUSE_VECTOR, """\
value = regs[b]
regs[a] = glist[c] if value is undef else value
""", handler="_loadx"),
    _spec("STOREX", FUSE_VECTOR, """\
if regs[a] is undef:
    glist[b] = regs[c]
else:
    regs[a] = regs[c]
""", handler="_storex"),
    _spec("NEWARR", FUSE_VECTOR, """\
regs[a] = [c] * b
"""),
    _spec("MATHOP", FUSE_VECTOR, """\
pend_h += 4
tot_h += 4
try:
    regs[a] = b(*[regs[i] for i in c])
except (ValueError, OverflowError):
    regs[a] = 0.0
"""),
    _spec("CALL", FUSE_CALL, """\
callee = funcs[b]
nregs = list(callee.proto)
n_args = len(c)
for i, slot in enumerate(callee.param_slots):
    nregs[slot] = regs[c[i]] if i < n_args else 0
stack.append((code, regs, pc, a, fc, trace))
fc = callee
code = callee.code
regs = nregs
pc = 0
trace = hooks.wants_function_events
if trace:
    hooks.on_func_enter(rank, fc.name, clock.now)
""", handler="_call"),
    _spec("RET", FUSE_CALL, """\
value = regs[a] if op == __RET__ else a
if trace:
    hooks.on_func_exit(rank, fc.name, clock.now)
if not stack:
    break
code, regs, pc, dst, fc, trace = stack.pop()
regs[dst] = value
""", "RETK", handler="_ret"),
    _spec("RANKOP", FUSE_VECTOR, """\
self._pending_frac += 0.1
self._total_frac += 0.1
regs[a] = rank
"""),
    _spec("SIZEOP", FUSE_VECTOR, """\
self._pending_frac += 0.1
self._total_frac += 0.1
regs[a] = self.n_ranks
"""),
    _spec("WTIME", FUSE_OBSERVE, """\
self._pending_half = pend_h
self._total_half = tot_h
self._flush()
pend_h = 0
regs[a] = clock.now
""", handler="_now_full"),
    _spec("COLL", FUSE_RENDEZVOUS, """\
self._pending_half = pend_h
self._total_half = tot_h
self._flush()
pend_h = 0
engine_op, spelled = b
size = float(regs[c]) if c >= 0 else 0.0
t0 = clock.now
hooks.on_mpi_begin(rank, spelled, t0)
state.fc = fc
state.code = code
state.regs = regs
state.pc = pc
state.stack = stack
state.trace = trace
state.mpi = (a, spelled, t0, size)
completion = yield MpiRequest(
    rank=rank, op=engine_op, size=size, peer=-1, arrive=t0
)
clock.wait_until(completion)
hooks.on_mpi_end(rank, spelled, t0, clock.now, size)
regs[a] = 0
""", handler="_mpi_full"),
    _spec("P2P", FUSE_RENDEZVOUS, """\
self._pending_half = pend_h
self._total_half = tot_h
self._flush()
pend_h = 0
engine_op, spelled = b
peer_reg, size_reg = c
peer = (int(regs[peer_reg]) if peer_reg >= 0 else 0) % nmod
size = float(regs[size_reg]) if size_reg >= 0 else 0.0
t0 = clock.now
hooks.on_mpi_begin(rank, spelled, t0)
state.fc = fc
state.code = code
state.regs = regs
state.pc = pc
state.stack = stack
state.trace = trace
state.mpi = (a, spelled, t0, size)
completion = yield MpiRequest(
    rank=rank, op=engine_op, size=size, peer=peer, arrive=t0
)
clock.wait_until(completion)
hooks.on_mpi_end(rank, spelled, t0, clock.now, size)
regs[a] = 0
""", handler="_mpi_full"),
    _spec("TICKOP", FUSE_OBSERVE, """\
self._pending_half = pend_h
self._total_half = tot_h
self._probe_tick(int(regs[a]))
pend_h = self._pending_half
tot_h = self._total_half
""", handler="_tick_full"),
    _spec("TOCKOP", FUSE_OBSERVE, """\
self._pending_half = pend_h
self._total_half = tot_h
self._probe_tock(int(regs[a]))
pend_h = self._pending_half
tot_h = self._total_half
""", handler="_tock_full"),
    _spec("IOOP", FUSE_OBSERVE, """\
self._pending_half = pend_h
self._total_half = tot_h
size = float(regs[c]) if c >= 0 else 1.0
self._io_op(b, size)
pend_h = 0
regs[a] = 0
""", handler="_io_full"),
    _spec("RANDOP", FUSE_VECTOR, """\
pend_h += 1
tot_h += 1
regs[a] = int(rng.integers(0, 2**31 - 1))
"""),
    _spec("CLOCKOP", FUSE_OBSERVE, """\
self._pending_half = pend_h
self._total_half = tot_h
self._flush()
pend_h = 0
regs[a] = int(clock.now)
""", handler="_now_full"),
    _spec("HOSTOP", FUSE_VECTOR, """\
pend_h += 1
tot_h += 1
regs[a] = clock.node.node_id
"""),
    _spec("RESFP", FUSE_VECTOR, """\
slot, gidx = b
value = None
if slot >= 0:
    value = regs[slot]
    if value is undef:
        value = glist[gidx] if gidx >= 0 else None
elif gidx >= 0:
    value = glist[gidx]
regs[a] = (
    func_index.get(value, -1) if type(value) is str else -1
)
""", handler="_resfp"),
    _spec("CALLIND", FUSE_DIVERGE, """\
target = regs[b]
meta, arg_regs = c
if target >= 0:
    callee = funcs[target]
    nregs = list(callee.proto)
    n_args = len(arg_regs)
    for i, slot in enumerate(callee.param_slots):
        nregs[slot] = regs[arg_regs[i]] if i < n_args else 0
    stack.append((code, regs, pc, a, fc, trace))
    fc = callee
    code = callee.code
    regs = nregs
    pc = 0
    trace = hooks.wants_function_events
    if trace:
        hooks.on_func_enter(rank, fc.name, clock.now)
else:
    pend_h, tot_h = self._extern(
        meta, [regs[i] for i in arg_regs], pend_h, tot_h
    )
    regs[a] = 0
""", handler="_callind_full"),
    _spec("EXTCALL", FUSE_OBSERVE, """\
pend_h, tot_h = self._extern(
    b, [regs[i] for i in c], pend_h, tot_h
)
regs[a] = 0
""", handler="_extern_full"),
)

#: opcode -> OpSpec (RETK maps to the shared RET spec)
OP_SPECS: dict[int, OpSpec] = {
    code: spec for spec in OP_TABLE for code in spec.codes
}


def fuse_class(op: int) -> str | None:
    """Fusability class of ``op``, or None for unknown/unused opcodes."""
    spec = OP_SPECS.get(op)
    return spec.fuse if spec is not None else None
