"""IR value and instruction classes.

Design notes
------------
* Expression temporaries live in virtual registers (``Reg``); each register
  is written by exactly one instruction (single static assignment within the
  function by construction — there are no phi nodes because named variables
  go through memory).
* Named variables (locals, parameters, globals, arrays) are memory
  locations accessed with ``Load``/``Store``/``LoadElem``/``StoreElem``.
  Reaching-definition analysis and the use–define chains the paper's
  dependency propagation relies on are computed over these memory accesses.
* Every instruction records ``ast_node`` — the frontend node it was lowered
  from.  Snippet membership ("does this instruction belong to loop L?") is
  decided by AST-subtree containment, which is how v-sensors are mapped back
  to source locations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.frontend.ast_nodes import Node

_INSTR_IDS = itertools.count(1)


# ---------------------------------------------------------------------------
# Values (instruction operands)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Value:
    """Base class for operand values."""


@dataclass(frozen=True, slots=True)
class Reg(Value):
    """A virtual register, unique within its function."""

    index: int

    def __str__(self) -> str:
        return f"%{self.index}"


@dataclass(frozen=True, slots=True)
class ConstInt(Value):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ConstFloat(Value):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class ConstStr(Value):
    value: str

    def __str__(self) -> str:
        return repr(self.value)


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Instr:
    """Base instruction.  ``block`` is set when appended to a BasicBlock."""

    ast_node: Node | None
    instr_id: int = field(default_factory=lambda: next(_INSTR_IDS), init=False)
    block: "object" = field(default=None, init=False, repr=False)

    def __hash__(self) -> int:
        return self.instr_id

    def operands(self) -> list[Value]:
        """Register/constant operands read by this instruction."""
        return []

    @property
    def dst(self) -> Reg | None:
        """The register written, if any."""
        return None


@dataclass(eq=False, slots=True)
class BinInstr(Instr):
    """``dst = lhs <op> rhs``"""

    dest: Reg = None  # type: ignore[assignment]
    op: str = "+"
    lhs: Value = None  # type: ignore[assignment]
    rhs: Value = None  # type: ignore[assignment]

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    @property
    def dst(self) -> Reg | None:
        return self.dest


@dataclass(eq=False, slots=True)
class UnaryInstr(Instr):
    """``dst = <op> src``"""

    dest: Reg = None  # type: ignore[assignment]
    op: str = "-"
    src: Value = None  # type: ignore[assignment]

    def operands(self) -> list[Value]:
        return [self.src]

    @property
    def dst(self) -> Reg | None:
        return self.dest


@dataclass(eq=False, slots=True)
class Load(Instr):
    """``dst = load var`` — read a scalar local/param/global."""

    dest: Reg = None  # type: ignore[assignment]
    var: str = ""

    @property
    def dst(self) -> Reg | None:
        return self.dest


@dataclass(eq=False, slots=True)
class Store(Instr):
    """``store var, src`` — write a scalar local/param/global."""

    var: str = ""
    src: Value = None  # type: ignore[assignment]

    def operands(self) -> list[Value]:
        return [self.src]


@dataclass(eq=False, slots=True)
class LoadElem(Instr):
    """``dst = load arr[index]``"""

    dest: Reg = None  # type: ignore[assignment]
    arr: str = ""
    index: Value = None  # type: ignore[assignment]

    def operands(self) -> list[Value]:
        return [self.index]

    @property
    def dst(self) -> Reg | None:
        return self.dest


@dataclass(eq=False, slots=True)
class StoreElem(Instr):
    """``store arr[index], src``"""

    arr: str = ""
    index: Value = None  # type: ignore[assignment]
    src: Value = None  # type: ignore[assignment]

    def operands(self) -> list[Value]:
        return [self.index, self.src]


@dataclass(eq=False, slots=True)
class CallInstr(Instr):
    """``dst = call callee(args)``.

    ``callee`` is the spelled name.  ``is_indirect`` marks calls through a
    funcptr variable (the spelled name is then the variable name); indirect
    targets are unresolvable at compile time and get pruned from the call
    graph exactly as the paper prescribes (Fig. 10).
    """

    dest: Reg | None = None
    callee: str = ""
    args: list[Value] = field(default_factory=list)
    is_indirect: bool = False

    def operands(self) -> list[Value]:
        return list(self.args)

    @property
    def dst(self) -> Reg | None:
        return self.dest


@dataclass(eq=False, slots=True)
class AddrOfInstr(Instr):
    """``dst = &func``"""

    dest: Reg = None  # type: ignore[assignment]
    func_name: str = ""

    @property
    def dst(self) -> Reg | None:
        return self.dest


# -- terminators -------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Branch(Instr):
    """``br cond, true_block, false_block``"""

    cond: Value = None  # type: ignore[assignment]
    true_block: "object" = None
    false_block: "object" = None

    def operands(self) -> list[Value]:
        return [self.cond]


@dataclass(eq=False, slots=True)
class Jump(Instr):
    """``jmp target``"""

    target: "object" = None


@dataclass(eq=False, slots=True)
class Ret(Instr):
    """``ret value?``"""

    value: Value | None = None

    def operands(self) -> list[Value]:
        return [self.value] if self.value is not None else []


TERMINATORS = (Branch, Jump, Ret)


def is_terminator(instr: Instr) -> bool:
    return isinstance(instr, TERMINATORS)
