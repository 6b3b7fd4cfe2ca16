"""Workload descriptions for external functions (§3.5).

An external function has no body in the module, so its behaviour cannot be
analyzed.  The paper's default policy is conservative: an undescribed extern
is *never-fixed workload*, so any snippet containing a call to it is never a
v-sensor.  Descriptions for common libc and MPI functions are provided here,
mirroring the defaults vSensor ships; users can register more.

A description states, for each function:

* which argument positions determine the quantity of work
  (``workload_args`` — e.g. the element count of ``MPI_Send``),
* what the return value is (a constant, the process rank, a function of the
  arguments, or unanalyzable),
* which category of system component it exercises (network / IO /
  computation / neutral),
* which argument, if any, names a communication destination
  (``dest_arg`` — used by the optional fixed-destination static rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: return-value behaviours
RET_CONST = "const"          # same value every call (e.g. MPI_SUCCESS)
RET_RANK = "rank"            # process identity (MPI_Comm_rank, gethostname)
RET_ARGS = "depends_args"    # pure function of the arguments (sqrt, abs)
RET_NONFIXED = "nonfixed"    # unanalyzable (rand, fread contents, time)


@dataclass(frozen=True, slots=True)
class ExternModel:
    """Workload description of one external function."""

    name: str
    workload_args: tuple[int, ...] = ()
    ret: str = RET_CONST
    category: str = "neutral"  # "net" | "io" | "comp" | "neutral"
    dest_arg: int | None = None
    #: base simulated cost (abstract work units) — used by the interpreter
    base_cost: float = 1.0
    #: per-unit cost multiplier applied to the product of workload args
    unit_cost: float = 1.0
    #: False for functions too small to wrap in probes (math, rand, ...);
    #: such call snippets are identified but never selected (§4 granularity)
    probe_worthy: bool = True

    def units(self, args) -> float:
        """Quantity of work of one call: the product of its workload
        arguments (negatives count as 0; absent positions as 1)."""
        units = 1.0
        for idx in self.workload_args:
            if idx < len(args):
                units *= max(0.0, float(args[idx]))
        return units

    def cost(self, units: float) -> float:
        """Simulated cost (work units) of a call doing ``units`` of work."""
        return self.base_cost + self.unit_cost * (units if self.workload_args else 0.0)


class ExternRegistry:
    """Lookup table of extern models, with the conservative default."""

    def __init__(self, models: dict[str, ExternModel] | None = None) -> None:
        self._models: dict[str, ExternModel] = dict(models or {})

    def register(self, model: ExternModel) -> None:
        self._models[model.name] = model

    def lookup(self, name: str) -> ExternModel | None:
        """The model for ``name``, or None when undescribed (= never fixed)."""
        return self._models.get(name)

    def known(self, name: str) -> bool:
        return name in self._models

    def names(self) -> list[str]:
        return sorted(self._models)

    def copy(self) -> "ExternRegistry":
        return ExternRegistry(dict(self._models))

    def cache_fingerprint(self) -> str:
        """Deterministic content identity for pipeline artifact caching.

        ExternModel is a frozen dataclass with only scalar/tuple fields, so
        its repr is a faithful content digest; sorting makes registration
        order irrelevant.
        """
        body = ",".join(repr(self._models[name]) for name in sorted(self._models))
        return f"ExternRegistry({body})"


def _mpi_models() -> list[ExternModel]:
    """Default descriptions for the MPI subset the mini language exposes.

    Signatures are simplified relative to real MPI (buffers are implicit;
    sizes are element counts): ``MPI_Send(dest, count)``,
    ``MPI_Recv(src, count)``, ``MPI_Allreduce(count)``,
    ``MPI_Alltoall(count)``, ``MPI_Bcast(root, count)``,
    ``MPI_Reduce(root, count)``, ``MPI_Barrier()``,
    ``MPI_Comm_rank()``, ``MPI_Comm_size()``, ``MPI_Wtime()``,
    ``MPI_Sendrecv(peer, count)``, ``MPI_Allgather(count)``.
    """
    return [
        ExternModel("MPI_Send", workload_args=(1,), ret=RET_CONST, category="net", dest_arg=0, base_cost=2.0, unit_cost=1.0),
        ExternModel("MPI_Recv", workload_args=(1,), ret=RET_CONST, category="net", dest_arg=0, base_cost=2.0, unit_cost=1.0),
        ExternModel("MPI_Sendrecv", workload_args=(1,), ret=RET_CONST, category="net", dest_arg=0, base_cost=3.0, unit_cost=2.0),
        ExternModel("MPI_Allreduce", workload_args=(0,), ret=RET_CONST, category="net", base_cost=4.0, unit_cost=2.0),
        ExternModel("MPI_Reduce", workload_args=(1,), ret=RET_CONST, category="net", base_cost=3.0, unit_cost=1.5),
        ExternModel("MPI_Bcast", workload_args=(1,), ret=RET_CONST, category="net", base_cost=3.0, unit_cost=1.5),
        ExternModel("MPI_Alltoall", workload_args=(0,), ret=RET_CONST, category="net", base_cost=6.0, unit_cost=4.0),
        ExternModel("MPI_Allgather", workload_args=(0,), ret=RET_CONST, category="net", base_cost=5.0, unit_cost=3.0),
        ExternModel("MPI_Barrier", workload_args=(), ret=RET_CONST, category="net", base_cost=3.0),
        ExternModel("MPI_Comm_rank", workload_args=(), ret=RET_RANK, category="neutral", base_cost=0.1),
        ExternModel("MPI_Comm_size", workload_args=(), ret=RET_CONST, category="neutral", base_cost=0.1),
        ExternModel("MPI_Wtime", workload_args=(), ret=RET_NONFIXED, category="neutral", base_cost=0.1),
    ]


def _libc_models() -> list[ExternModel]:
    """Default descriptions for the libc-like subset.

    ``fread(n)`` / ``fwrite(n)`` move ``n`` units; ``printf(...)`` emits a
    bounded message (fixed workload); ``sqrt``/``fabs``/``exp``/``log``/
    ``sin``/``cos`` are pure math; ``rand()`` and ``clock()`` return
    unanalyzable values; ``gethostname()`` identifies the process;
    ``compute_units(n)`` is the synthetic CPU-burn intrinsic used by the
    workload analogues (n units of arithmetic).
    """
    pure_math = ["sqrt", "fabs", "exp", "log", "sin", "cos", "floor", "ceil", "pow", "fmod", "min", "max", "abs"]
    models = [
        ExternModel(name, workload_args=(), ret=RET_ARGS, category="comp", base_cost=1.0, probe_worthy=False)
        for name in pure_math
    ]
    models += [
        ExternModel("printf", workload_args=(), ret=RET_CONST, category="io", base_cost=2.0),
        ExternModel("fread", workload_args=(0,), ret=RET_NONFIXED, category="io", base_cost=4.0, unit_cost=2.0),
        ExternModel("fwrite", workload_args=(0,), ret=RET_CONST, category="io", base_cost=4.0, unit_cost=2.0),
        ExternModel("fopen", workload_args=(), ret=RET_NONFIXED, category="io", base_cost=8.0),
        ExternModel("fclose", workload_args=(), ret=RET_CONST, category="io", base_cost=4.0),
        ExternModel("rand", workload_args=(), ret=RET_NONFIXED, category="comp", base_cost=0.5, probe_worthy=False),
        ExternModel("srand", workload_args=(), ret=RET_CONST, category="comp", base_cost=0.5, probe_worthy=False),
        ExternModel("clock", workload_args=(), ret=RET_NONFIXED, category="neutral", base_cost=0.1, probe_worthy=False),
        ExternModel("gethostname", workload_args=(), ret=RET_RANK, category="neutral", base_cost=0.5, probe_worthy=False),
        # compute_units stands for inlined straight-line arithmetic; it is
        # costed by the simulator but is not a call-snippet candidate (the
        # paper's `count++` statement case) and never probed.
        ExternModel("compute_units", workload_args=(0,), ret=RET_CONST, category="comp", base_cost=0.0, unit_cost=1.0, probe_worthy=False),
    ]
    return models


def default_extern_registry() -> ExternRegistry:
    """The registry with the paper's default libc + MPI descriptions."""
    registry = ExternRegistry()
    for model in _mpi_models() + _libc_models():
        registry.register(model)
    return registry
