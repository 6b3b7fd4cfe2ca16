"""Reaching-definition analysis over the memory-based IR.

Definitions tracked:

* ``Store var, v``          — a *must* definition of ``var`` (kills).
* ``StoreElem arr[i], v``   — a *may* definition of array ``arr`` (no kill).
* ``CallInstr``             — a *may* definition of every global in the
  callee's mod-set (provided by the caller of this analysis via
  ``call_mod_sets``; the set for unresolved callees is decided by the
  sensors layer's conservative policy).
* function entry            — a synthetic definition of every parameter and
  every global (their incoming values).

The analysis is a classic forward may-analysis solved with a worklist over
reverse postorder.  Results are exposed per instruction: the set of
definitions of a variable reaching *immediately before* each instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.basicblock import BasicBlock
from repro.ir.function import IRFunction
from repro.ir.instructions import CallInstr, Instr, Store, StoreElem


@dataclass(frozen=True, slots=True)
class Definition:
    """One definition site of a named variable.

    ``instr`` is ``None`` for the synthetic entry definition (parameter or
    incoming global value).  ``is_may`` marks definitions that do not kill
    (array stores, call mod-effects).
    """

    var: str
    instr: Instr | None
    is_may: bool = False

    @property
    def is_entry(self) -> bool:
        return self.instr is None


def postorder(fn: IRFunction) -> list[BasicBlock]:
    """Depth-first postorder of the CFG starting at the entry block."""
    visited: set[BasicBlock] = set()
    order: list[BasicBlock] = []

    # Iterative DFS with an explicit stack of (block, successor-iterator).
    entry = fn.entry
    stack: list[tuple[BasicBlock, list[BasicBlock], int]] = [(entry, entry.successors(), 0)]
    visited.add(entry)
    while stack:
        block, succs, idx = stack.pop()
        while idx < len(succs):
            succ = succs[idx]
            idx += 1
            if succ not in visited:
                visited.add(succ)
                stack.append((block, succs, idx))
                stack.append((succ, succ.successors(), 0))
                break
        else:
            order.append(block)
    return order


def reverse_postorder(fn: IRFunction) -> list[BasicBlock]:
    """Reverse postorder — the canonical forward-dataflow iteration order."""
    return list(reversed(postorder(fn)))


class ReachingDefinitions:
    """Solved reaching-definition facts for one function."""

    def __init__(
        self,
        fn: IRFunction,
        block_in: dict[BasicBlock, frozenset[Definition]],
        defs_of_instr: Callable[[Instr], list[Definition]],
    ) -> None:
        # Per-instruction IN sets, materialized up front.  The transfer
        # function is only needed here and is often a closure — holding on
        # to it would make solved facts unpicklable.
        self._instr_in: dict[int, frozenset[Definition]] = {}
        for block in fn.blocks:
            current = set(block_in.get(block, frozenset()))
            for instr in block.instrs:
                self._instr_in[instr.instr_id] = frozenset(current)
                _apply_transfer(current, defs_of_instr(instr))

    def reaching_before(self, instr: Instr, var: str) -> list[Definition]:
        """Definitions of ``var`` reaching immediately before ``instr``."""
        facts = self._instr_in.get(instr.instr_id)
        if facts is None:
            raise KeyError(f"instruction {instr.instr_id} not in analyzed function")
        return [d for d in facts if d.var == var]


def _apply_transfer(current: set[Definition], new_defs: list[Definition]) -> None:
    """Apply one instruction's definitions to the running fact set."""
    for d in new_defs:
        if not d.is_may:
            current.difference_update({old for old in current if old.var == d.var})
        current.add(d)


def compute_reaching_definitions(
    fn: IRFunction,
    global_names: set[str],
    call_mod_sets: Callable[[CallInstr], set[str]] | None = None,
) -> ReachingDefinitions:
    """Solve reaching definitions for ``fn``.

    ``call_mod_sets`` maps a call instruction to the set of *global* variable
    names it may modify; when ``None``, calls are treated as modifying no
    globals (callers wanting the paper's conservative treatment pass a
    resolver built from function summaries and extern models).
    """
    mods = call_mod_sets or (lambda call: set())

    def defs_of_instr(instr: Instr) -> list[Definition]:
        if isinstance(instr, Store):
            return [Definition(var=instr.var, instr=instr)]
        if isinstance(instr, StoreElem):
            return [Definition(var=instr.arr, instr=instr, is_may=True)]
        if isinstance(instr, CallInstr):
            return [
                Definition(var=g, instr=instr, is_may=True)
                for g in sorted(mods(instr))
            ]
        return []

    entry_defs = frozenset(
        [Definition(var=p, instr=None) for p in fn.params]
        + [Definition(var=g, instr=None) for g in sorted(global_names)]
        + [Definition(var=v, instr=None) for v in fn.locals]
    )
    # Locals get an entry definition too: an uninitialized read is then
    # traced to "function entry", which the sensors layer treats as an
    # unknown (non-fixed) input — conservative and safe.

    block_in: dict[BasicBlock, set[Definition]] = {b: set() for b in fn.blocks}
    block_out: dict[BasicBlock, set[Definition]] = {b: set() for b in fn.blocks}
    block_in[fn.entry] = set(entry_defs)

    rpo = reverse_postorder(fn)
    worklist = list(rpo)
    in_worklist = set(rpo)
    while worklist:
        block = worklist.pop(0)
        in_worklist.discard(block)
        if block is not fn.entry:
            merged: set[Definition] = set()
            for pred in block.preds:
                merged |= block_out[pred]
            block_in[block] = merged
        # Transfer by walking the block: this handles ordering between may-
        # and must-definitions of the same variable exactly.
        out = set(block_in[block])
        for instr in block.instrs:
            _apply_transfer(out, defs_of_instr(instr))
        if out != block_out[block]:
            block_out[block] = out
            for succ in block.successors():
                if succ not in in_worklist:
                    worklist.append(succ)
                    in_worklist.add(succ)

    return ReachingDefinitions(
        fn,
        {b: frozenset(s) for b, s in block_in.items()},
        defs_of_instr,
    )
