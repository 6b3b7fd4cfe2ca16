"""IR functions: a CFG of basic blocks plus symbol tables."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend.ast_nodes import FunctionDef
from repro.ir.basicblock import BasicBlock


@dataclass(eq=False, slots=True)
class IRFunction:
    """A lowered function.

    ``params`` are the names of parameter memory locations (defined at
    entry).  ``locals`` maps local variable name to array size (``None`` for
    scalars).  ``ast`` links back to the frontend definition.
    """

    name: str
    params: list[str]
    ret_type: str
    ast: FunctionDef | None = None
    blocks: list[BasicBlock] = field(default_factory=list)
    locals: dict[str, int | None] = field(default_factory=dict)
    param_types: dict[str, str] = field(default_factory=dict)

    def __hash__(self) -> int:
        return id(self)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def new_block(self, label: str) -> BasicBlock:
        block = BasicBlock(label=f"{label}.{len(self.blocks)}")
        self.blocks.append(block)
        return block

    def seal(self) -> None:
        """Recompute predecessor lists and drop unreachable blocks."""
        reachable: list[BasicBlock] = []
        seen: set[BasicBlock] = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            reachable.append(block)
            stack.extend(block.successors())
        # Preserve construction order for determinism.
        self.blocks = [b for b in self.blocks if b in seen]
        for block in self.blocks:
            block.preds = []
        for block in self.blocks:
            for succ in block.successors():
                succ.preds.append(block)

    def instructions(self):
        """Yield every instruction, block by block."""
        for block in self.blocks:
            yield from block.instrs
