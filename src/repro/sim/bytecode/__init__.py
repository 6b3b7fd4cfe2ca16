"""Bytecode compilation tier for the mini language (the fast interpreter).

The AST interpreter (:mod:`repro.sim.interp`) walks the tree once per node
per execution; at 256+ simulated ranks that tree walk dominates every
benchmark.  This package lowers each function **once per program** into a
compact register-based instruction stream:

* locals and globals are resolved to integer slots at compile time;
* the work-unit costs of every straight-line span, and ``compute_units``
  of a literal, are constant-folded into a single ``CHARGE`` instruction
  (exact: the folded costs are integer counts of half work units, so
  grouping cannot change the float result — see the accounting note in
  :mod:`repro.sim.interp`);
* call sites are pre-classified (user function / intrinsic family /
  extern model / indirect funcptr) so the VM never string-matches a name
  in the hot loop;
* at first dispatch the program is *rendered* (:mod:`.render`) into one
  generator function whose basic blocks are straight-line code built from
  the opcode table's bodies — no per-instruction fetch or dispatch chain.

The read-only :class:`ProgramCode` is shared by all N rank VMs; per-rank
setup is allocation-only.  The VM speaks the exact generator protocol of
the AST tier (yield :class:`~repro.sim.interp.MpiRequest`, receive the
completion time), so the rendezvous engine and every runtime hook are
unchanged, and the two tiers produce bit-identical results.
"""

from repro.sim.bytecode.compiler import (
    FuncCode,
    ProgramCode,
    compile_module,
    program_code,
)
from repro.sim.bytecode.disasm import (
    disassemble,
    disassemble_function,
    fusability_summary,
)
from repro.sim.bytecode.vm import UNDEF, BytecodeInterp

__all__ = [
    "BytecodeInterp",
    "FuncCode",
    "ProgramCode",
    "UNDEF",
    "compile_module",
    "disassemble",
    "disassemble_function",
    "fusability_summary",
    "program_code",
]
