"""Rendezvous engine: coordinates the per-rank interpreters.

All MPI operations in the mini language are blocking, so the simulation
reduces to a rendezvous protocol: run every rank until it blocks on an MPI
request (pure computation advances each rank's private clock
independently), then resolve matching requests — collectives complete when
every rank has arrived; point-to-point operations complete when both ends
have arrived — and resume the participants at the completion time.  If no
request can be resolved while ranks are still blocked, the program has
deadlocked and the engine raises.

Matching is *indexed* rather than scanned: a send (resp. recv) checks one
``(src, dst)`` hash slot for its partner at the moment it blocks, and each
collective keeps a counter of arrived ranks, so a rendezvous round costs
O(participants) instead of the O(n²) of re-scanning every blocked rank per
match.  Sendrecv exchange groups (rings and permutations) still need the
stable-set computation, but it runs at most once per drain of the runnable
queue instead of once per blocked rank.

Completion times are pure functions of the participating requests (arrival
times and sizes), and every request has a unique partner or group, so the
resolution *order* — which differs from the old scanning engine — cannot
change any rank's clock, the match count, or any hook payload.

The interpreter tier is selectable: ``engine="bytecode"`` (default) runs
the compiled register VM (:mod:`repro.sim.bytecode`); ``engine="ast"``
runs the tree-walking reference interpreter; ``engine="lockstep"`` runs
the SIMD-over-ranks vectorized VM (:mod:`repro.sim.lockstep`), which
fetches each instruction once for the whole fused rank batch and drains
diverging ranks onto per-rank bytecode interpreters.  All tiers produce
bit-identical results; the AST tier is kept as the executable
specification.

Every tier builds one interpreter per rank and the engine reads each
rank's finish time, work and record count off it.  Only the rank's
generator differs: ``interp.run()`` on the scalar tiers,
``LockstepRunner.run(lane)`` on the lockstep tier, where the runner moves
the rank between the fused batch and its own interpreter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.frontend import ast_nodes as A
from repro.instrument.rewrite import SensorInfo
from repro.obs import NULL_OBS, Obs
from repro.sensors.extern import default_extern_registry
from repro.sim.clock import CapacityTable
from repro.sim.faults import Fault
from repro.sim.hooks import NullHooks, RuntimeHooks
from repro.sim.interp import MpiRequest, RankInterp
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkModel

#: rank count at and above which ``engine="auto"`` picks the lockstep
#: tier.  Lockstep over the per-program rendered bytecode tier,
#: instrumented (BENCH_interp.json): at 8 ranks CG 0.46x, FT 0.89x, LULESH
#: 0.34x; at 32 ranks CG 1.29x, FT 2.17x, LULESH 0.72x; at 128 every
#: workload wins (1.5-4.2x).  At 16 ranks, measured before both tiers
#: shared one clock kernel: FT 1.6x, LULESH 0.6x, CG a tie (1.02x / 0.94x
#: in two sets) — the three programs' summed wall time was equal on both
#: tiers, so the crossover stays here.
AUTO_LOCKSTEP_MIN_RANKS = 16


def resolve_engine(engine: str, n_ranks: int) -> str:
    """Resolve the ``"auto"`` interpreter tier for a rank count.

    ``"auto"`` maps to ``"bytecode"`` below
    :data:`AUTO_LOCKSTEP_MIN_RANKS` ranks and ``"lockstep"`` at or above
    it; any concrete tier name passes through unchanged.  All tiers are
    bit-identical, so auto-selection can only change wall-clock speed.
    """
    if engine != "auto":
        return engine
    return "lockstep" if n_ranks >= AUTO_LOCKSTEP_MIN_RANKS else "bytecode"


@dataclass(slots=True)
class RankResult:
    rank: int
    finish_time: float
    total_work: float
    sensor_records: int


@dataclass(slots=True)
class SimResult:
    """Outcome of one simulated run."""

    ranks: list[RankResult] = field(default_factory=list)
    total_time: float = 0.0
    mpi_matches: int = 0

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def finish_times(self) -> list[float]:
        return [r.finish_time for r in self.ranks]


class Simulator:
    """Runs one program on one machine configuration (``sensors`` is
    accepted and unread: probes carry their ids, hooks hold the table)."""

    def __init__(
        self,
        module: A.Module,
        machine: MachineConfig,
        faults: tuple[Fault, ...] | list[Fault] = (),
        sensors: dict[int, SensorInfo] | None = None,
        externs=None,
        engine: str = "bytecode",
        obs: Obs | None = None,
        probe_control=None,
    ) -> None:
        if engine not in ("bytecode", "ast", "lockstep", "auto"):
            raise ValueError(
                f"unknown engine {engine!r} (bytecode|ast|lockstep|auto)"
            )
        engine = resolve_engine(engine, machine.n_ranks)
        self.module = module
        #: optional governor :class:`~repro.runtime.governor.SensorControlTable`
        #: consulted per probe execution; ``None`` keeps probes unconditional
        self.probe_control = probe_control
        self.machine = machine
        self.faults = tuple(faults)
        #: one registry for the compiled program and every rank's interpreter
        self.externs = externs if externs is not None else default_extern_registry()
        #: what keys the module's shared bytecode: ``None`` = the default
        self._given_externs = externs
        self.engine = engine
        self.obs = obs or NULL_OBS
        self.network = NetworkModel(machine=machine, faults=self.faults)
        self._program_code = None  # fetched lazily, shared across runs/ranks
        self._lockstep_runner = None  # set per run when engine="lockstep"

    # -- interpreter construction -------------------------------------------

    def _compiled_program(self):
        if self._program_code is None:
            from repro.sim.bytecode import program_code

            with self.obs.tracer.span("sim.compile_bytecode"):
                self._program_code = program_code(self.module, self._given_externs)
        return self._program_code

    def _build_interps(self, hooks: RuntimeHooks) -> list:
        n = self.machine.n_ranks
        self._lockstep_runner = None
        per_rank = dict(
            module=self.module,
            n_ranks=n,
            machine=self.machine,
            faults=self.faults,
            hooks=hooks,
            externs=self.externs,
            probe_control=self.probe_control,
        )
        if self.engine == "ast":
            shared_memo: dict[int, bool] = {}
            interps = [
                RankInterp(rank=rank, shared_has_call=shared_memo, **per_rank)
                for rank in range(n)
            ]
        else:
            from repro.sim.bytecode import BytecodeInterp

            program = self._compiled_program()
            interps = [
                BytecodeInterp(program, rank=rank, **per_rank) for rank in range(n)
            ]
        CapacityTable.shared_by([interp.clock for interp in interps])
        if self.engine == "lockstep":
            from repro.sim.lockstep import LockstepRunner

            self._lockstep_runner = LockstepRunner(interps, hooks, self.obs)
        return interps

    # -- main loop ----------------------------------------------------------

    def run(self, hooks: RuntimeHooks | None = None) -> SimResult:
        tracer = self.obs.tracer
        run_span = tracer.span("sim.run", engine=self.engine, n_ranks=self.machine.n_ranks)
        try:
            result, rounds = self._run_loop(hooks or NullHooks())
        except BaseException:
            # Close the span on the failure path too (deadlocks, program
            # errors surfacing from an interpreter) so the tracer's stack
            # stays well-formed for whoever catches the exception.
            run_span.set("failed", True)
            tracer.exit(run_span)
            raise
        if tracer.enabled:
            # Per-rank virtual-time spans on the sim track: one leaf per
            # rank under sim.run, timestamped by the rank's own clock.
            for r in result.ranks:
                tracer.emit(
                    "sim.rank",
                    0.0,
                    r.finish_time,
                    rank=r.rank,
                    sensor_records=r.sensor_records,
                )
        run_span.set("mpi_matches", result.mpi_matches)
        run_span.set("rounds", rounds)
        tracer.exit(run_span)
        metrics = self.obs.metrics
        metrics.counter("sim.mpi_matches").inc(result.mpi_matches)
        metrics.counter("sim.rendezvous_rounds").inc(rounds)
        metrics.counter("sim.ranks_finished").inc(len(result.ranks))
        return result

    def _run_loop(self, hooks: RuntimeHooks) -> tuple[SimResult, int]:
        n = self.machine.n_ranks
        hooks.on_program_start(n)
        with self.obs.tracer.span("sim.build_interps"):
            interps = self._build_interps(hooks)
        runner = self._lockstep_runner
        gens = [interp.run() if runner is None else runner.run(lane)
                for lane, interp in enumerate(interps)]
        network = self.network
        rounds = 0

        blocked: dict[int, MpiRequest] = {}
        finished: set[int] = set()
        matches = 0

        # Indexed matching state.
        coll_count: dict[str, int] = {}
        send_index: dict[tuple[int, int], int] = {}  # (src, dst) -> src rank
        recv_index: dict[tuple[int, int], int] = {}  # (src, dst) -> dst rank
        n_sendrecv = 0

        # Resolved groups awaiting resumption, and ranks ready to advance.
        groups: deque[list[tuple[int, float]]] = deque()
        runnable: deque[tuple[int, float | None]] = deque((r, None) for r in range(n))

        while True:
            rounds += 1
            while runnable:
                rank, send_value = runnable.popleft()
                gen = gens[rank]
                try:
                    request = gen.send(send_value) if send_value is not None else next(gen)
                except StopIteration:
                    finished.add(rank)
                    continue
                blocked[rank] = request
                op = request.op
                if op == "send":
                    key = (rank, request.peer)
                    other = recv_index.pop(key, None)
                    if other is None:
                        send_index[key] = rank
                    else:
                        groups.append(
                            self._complete_p2p(rank, request, other, blocked[other])
                        )
                elif op == "recv":
                    key = (request.peer, rank)
                    other = send_index.pop(key, None)
                    if other is None:
                        recv_index[key] = rank
                    else:
                        groups.append(
                            self._complete_p2p(other, blocked[other], rank, request)
                        )
                elif op == "sendrecv":
                    if request.peer == rank:
                        # Self-exchange completes locally.
                        groups.append(
                            [(rank, request.arrive + network.p2p(request.arrive, request.size))]
                        )
                    else:
                        n_sendrecv += 1
                else:  # collective
                    count = coll_count.get(op, 0) + 1
                    if count == n:
                        # Every rank is blocked on this collective.
                        coll_count[op] = 0
                        arrive = max(r.arrive for r in blocked.values())
                        size = max(r.size for r in blocked.values())
                        completion = arrive + network.collective(op, arrive, size, n)
                        groups.append([(r, completion) for r in blocked])
                    else:
                        coll_count[op] = count

            if not groups and n_sendrecv:
                group = self._resolve_sendrecv(blocked)
                if group:
                    n_sendrecv -= len(group)
                    groups.append(group)
            if not groups:
                if blocked:
                    self._raise_deadlock(blocked, finished)
                break
            while groups:
                matches += 1
                group = groups.popleft()
                if runner is not None:
                    # Let a fused lockstep batch absorb every completion in
                    # the group before any member is resumed; this is also
                    # where fully-drained batches re-fuse.
                    runner.on_group(group)
                for rank, completion in group:
                    del blocked[rank]
                    runnable.append((rank, completion))

        if runner is not None:
            runner.flush_counters()
        result = SimResult(mpi_matches=matches)
        for interp in interps:
            result.ranks.append(
                RankResult(
                    rank=interp.rank,
                    finish_time=interp.clock.now,
                    total_work=interp.total_work,
                    sensor_records=interp.sensor_record_count,
                )
            )
        result.total_time = max((r.finish_time for r in result.ranks), default=0.0)
        return result, rounds

    # -- request resolution -------------------------------------------------

    def _complete_p2p(
        self, rank_a: int, req_a: MpiRequest, rank_b: int, req_b: MpiRequest
    ) -> list[tuple[int, float]]:
        arrive = max(req_a.arrive, req_b.arrive)
        size = max(req_a.size, req_b.size)
        completion = arrive + self.network.p2p(arrive, size)
        return [(rank_a, completion), (rank_b, completion)]

    def _resolve_sendrecv(self, blocked: dict[int, MpiRequest]) -> list[tuple[int, float]]:
        """Resolve the stable set of pending sendrecv exchanges.

        ``MPI_Sendrecv(dest, n)`` sends to ``dest`` and receives from
        whichever rank targets us.  An exchange pattern (pair, ring, or any
        permutation) can only complete as a unit: each participant needs
        both its destination and its source posted, and completing one rank
        alone would strand its neighbours.  We therefore compute the stable
        set — pending sendrecvs iteratively pruned of members with a
        missing destination or source — and complete every member of it.
        Per-rank completion is pinned at the latest arrival among itself,
        its destination and its source, which propagates skew around the
        ring exactly like a real exchange.
        """
        pending = {r: req for r, req in blocked.items() if req.op == "sendrecv"}
        changed = True
        while changed:
            changed = False
            sources = {req.peer for req in pending.values()}
            for r in list(pending):
                req = pending[r]
                if req.peer not in pending or r not in sources:
                    del pending[r]
                    changed = True
        if not pending:
            return []
        source_of: dict[int, int] = {}
        for r, req in pending.items():
            source_of[req.peer] = r
        out: list[tuple[int, float]] = []
        for r, req in pending.items():
            src = source_of[r]
            arrive = max(req.arrive, pending[req.peer].arrive, pending[src].arrive)
            cost = self.network.p2p(arrive, max(req.size, pending[src].size))
            out.append((r, arrive + cost))
        return out

    def _raise_deadlock(
        self, blocked: dict[int, MpiRequest], finished: set[int]
    ) -> None:
        pending = {r: (blocked[r].op, blocked[r].peer) for r in sorted(blocked)}
        message = (
            f"MPI deadlock: {len(blocked)} rank(s) blocked, none resolvable: "
            f"{dict(list(pending.items())[:8])}"
        )
        if finished:
            done = sorted(finished)
            shown = ", ".join(str(r) for r in done[:16])
            if len(done) > 16:
                shown += ", ..."
            message += (
                f"; {len(done)} rank(s) already finished ({shown}) — a rank "
                "exiting before a collective is the usual cause"
            )
        raise SimulationError(message)
