"""Register VM executing :mod:`repro.sim.bytecode.compiler` output.

One :class:`BytecodeInterp` per rank, all sharing one read-only
:class:`~repro.sim.bytecode.compiler.ProgramCode`.  The VM subclasses
:class:`~repro.sim.interp.RankInterp` so the clock, PMU, RNG, probe and IO
machinery — everything observable — is literally the same object code as
the AST tier; only statement/expression execution is replaced, by the
program's *rendered core* (``ProgramCode.core()``,
:mod:`repro.sim.bytecode.render`): one generator function per program whose
basic blocks are straight-line code assembled from the
:data:`~repro.sim.bytecode.dispatch.OP_TABLE` bodies.  There is no generic
per-instruction loop beside it.

The core keeps the hot half-unit work counters (``pend_h`` / ``tot_h``) in
Python locals and mirrors them into the inherited ``_pending_half`` /
``_total_half`` attributes around every call that might read or reset them
(flushes, probes, IO).  Residual (non-half-unit) charges go straight to
the ``_pending_frac`` / ``_total_frac`` attributes — they are rare and
must be applied in program order.

The generator protocol is the AST tier's: MPI rendezvous yields an
:class:`~repro.sim.interp.MpiRequest` and receives the completion time.
Because the core runs off an explicit :class:`ScalarState`, execution can
also *start mid-program*, at any block leader: the lockstep tier drains
diverged lanes by handing a materialized state to
:meth:`BytecodeInterp.resume`.
"""

from __future__ import annotations

from repro.errors import InterpError
from repro.sim.bytecode.dispatch import UNDEF, ScalarState, _Undef
from repro.sim.interp import RankInterp

__all__ = ["BytecodeInterp", "ScalarState", "UNDEF", "_Undef"]


class BytecodeInterp(RankInterp):
    """Bytecode-executing drop-in for :class:`RankInterp`."""

    def __init__(self, program, module, rank, n_ranks, machine, faults, hooks,
                 sensors=None, entry="main", externs=None, probe_control=None):
        super().__init__(
            module=module,
            rank=rank,
            n_ranks=n_ranks,
            machine=machine,
            faults=faults,
            hooks=hooks,
            sensors=sensors,
            entry=entry,
            externs=externs,
            probe_control=probe_control,
        )
        self.program = program

    def _init_globals_list(self) -> list:
        glist = []
        for gv in self.program.global_decls:
            if gv.array_size is not None:
                glist.append([0.0 if gv.var_type == "float" else 0] * gv.array_size)
            elif gv.init is not None:
                glist.append(self._eval_fast(gv.init))
            else:
                glist.append(0.0 if gv.var_type == "float" else 0)
        return glist

    def run(self):
        """Generator: yields MpiRequest; receives completion times."""
        program = self.program
        entry_idx = program.func_index.get(self.entry)
        if entry_idx is None:
            raise InterpError(f"no entry function {self.entry!r}")
        fc = program.funcs[entry_idx]
        state = ScalarState(
            glist=self._init_globals_list(),
            fc=fc,
            code=fc.code,
            regs=list(fc.proto),
            pc=0,
            stack=[],
            trace=self.hooks.wants_function_events,
        )
        if state.trace:
            self.hooks.on_func_enter(self.rank, fc.name, self.clock.now)
        yield from program.core()(self, state)

    def resume(self, state: ScalarState):
        """Run the program's core from a materialized ``state``.

        Used by the lockstep tier to drain a diverged lane: the fused VM
        extracts the lane's registers/stack/pc into a :class:`ScalarState`
        and this rank's clock/PMU/RNG (shared with the fused batch the
        whole time) carry on exactly where the vectors left off.  The
        core refuses (``InterpError``) a ``state.pc`` or saved return pc
        that is not a block leader of its function.
        """
        return self.program.core()(self, state)

    # -- cold paths ---------------------------------------------------------

    def _extern(self, meta, args, pend_h, tot_h):
        """Run an extern-model call; returns the updated half counters.

        Mirrors the extern branch of :meth:`RankInterp._intrinsic` exactly.
        """
        name, model = meta
        if model is None:
            raise InterpError(f"rank {self.rank}: call to unknown function {name!r}")
        units = 1.0
        for idx in model.workload_args:
            if idx < len(args):
                units *= max(0.0, float(args[idx]))
        cost = model.base_cost + model.unit_cost * (units if model.workload_args else 0.0)
        if model.category == "net":
            self._pending_half = pend_h
            self._total_half = tot_h
            self._flush()
            pend_h = 0
            t0 = self.clock.now
            self.clock.advance_wall(cost * self.network.stretch_at(t0))
            self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, units)
        elif model.category == "io":
            self._pending_half = pend_h
            self._total_half = tot_h
            self._io_op(name, units)
            pend_h = 0
        else:
            doubled = cost + cost
            if doubled < 1e15 and doubled == int(doubled):
                n = int(doubled)
                pend_h += n
                tot_h += n
            else:
                self._pending_frac += cost
                self._total_frac += cost
        return pend_h, tot_h

    def _bad_array(self, fc, pc):
        raise InterpError(f"{fc.names.get(pc, '?')!r} is not an array")
