"""Opcode numbering for the register VM.

Every instruction is a 4-tuple ``(op, a, b, c)``; unused fields are None.
Register operands index one flat per-frame list laid out as
``[locals | temps | consts]`` — constants are materialized once at frame
creation (the prototype list is copied), so operand fetch is always a plain
list index.  Every constant here has exactly one entry in
:data:`repro.sim.bytecode.dispatch.OP_TABLE`, whose order (not this
numbering) is the order the lockstep tier's rendered chains test in.
"""

from __future__ import annotations

# Arithmetic / comparison (a=dst, b=lhs, c=rhs).  The comparison and logic
# forms produce int 1/0 like the AST tier; ANDL/ORL are non-short-circuit
# (both operands are already evaluated), exactly like `_binop`.
ADD = 0
SUB = 1
MUL = 2
DIV = 3
MOD = 4
LT = 5
LE = 6
GT = 7
GE = 8
EQ = 9
NE = 10
ANDL = 11
ORL = 12
NEG = 13   # a=dst, b=operand
NOTL = 14  # a=dst, b=operand

#: one folded basic-block work charge: a = integer count of half work units
CHARGE = 15

JUMP = 16   # a=target
JF = 17     # a=reg, b=target  (jump when falsy; 18 is unassigned)
# fused compare-and-branch: jump to c when the comparison is FALSE
JLT_F = 19  # a=lhs, b=rhs, c=target
JLE_F = 20
JGT_F = 21
JGE_F = 22
JEQ_F = 23
JNE_F = 24

MOVE = 25    # a=dst, b=src
LOADG = 26   # a=dst, b=global index
STOREG = 27  # a=global index, b=src
CHKDEF = 28  # a=slot — raise "read of undefined variable" if still UNDEF
LOADX = 29   # a=dst, b=slot, c=global index (local shadowing a global)
STOREX = 30  # a=slot, b=global index, c=src

INDEX = 31   # a=dst, b=array reg, c=index reg
STIDX = 32   # a=array reg, b=index reg, c=value reg
INDEXG = 33  # a=dst, b=global index, c=index reg
STIDXG = 34  # a=global index, b=index reg, c=value reg
NEWARR = 35  # a=slot, b=size, c=fill value

CALL = 36     # a=dst, b=function index, c=arg regs tuple
CALLIND = 37  # a=dst, b=funcptr reg (RESFP result), c=((name, model), arg regs)
RET = 38      # a=src
RETK = 39     # a=literal return value

CU = 40      # compute_units the compiler cannot fold into a CHARGE: a=arg reg
TICKOP = 41  # a=sensor-id reg
TOCKOP = 42  # a=sensor-id reg
RANKOP = 43  # a=dst
SIZEOP = 44  # a=dst
WTIME = 45   # a=dst
COLL = 46    # a=dst, b=(engine op, spelled name), c=size reg or -1
P2P = 47     # a=dst, b=(engine op, spelled name), c=(peer reg|-1, size reg|-1)
MATHOP = 48  # a=dst, b=callable, c=arg regs tuple (already sliced)
IOOP = 49    # a=dst, b=op name, c=size reg or -1
RANDOP = 50  # a=dst  (51 is unassigned: srand lowers to nothing)
CLOCKOP = 52  # a=dst
HOSTOP = 53   # a=dst
EXTCALL = 54  # a=dst, b=(name, ExternModel | None), c=arg regs tuple
# Resolve a funcptr variable before argument evaluation (the AST tier reads
# the variable first, so an argument expression reassigning it must not
# change the call target): a=dst temp, b=(slot | -1, global index | -1).
# The dst receives the resolved function index, or -1 on miss.
RESFP = 55

#: mnemonic table for the disassembler
NAMES = {
    value: name
    for name, value in list(globals().items())
    if name.isupper() and isinstance(value, int) and name != "NAMES"
}
