"""Process-parallel phase 1 of the multi-job runner.

:func:`~repro.api.run_multi_job` ``workers=N`` fans independent job
simulations (:func:`simulate_job`, one :class:`JobTask` each) onto a
deterministic :class:`WorkerPool` of OS processes, one
:mod:`multiprocessing.connection` pipe each; the parent feeds the
results through the same phases 2–4, bit-identical to the in-process
run.

Observability: ``parallel.dispatch`` / ``parallel.results`` /
``parallel.frames`` / ``parallel.worker_restart`` counters plus
``parallel.phase1`` / ``parallel.dispatch`` spans, all on the parent's
bundle (children run null-obs; enabling obs never changes results).
"""

from repro.parallel.pool import WorkerPool
from repro.parallel.runner import JobTask, simulate_job, simulate_jobs_parallel
from repro.parallel.wire import WireError, decode_rows, encode_rows

__all__ = [
    "WorkerPool",
    "JobTask",
    "simulate_job",
    "simulate_jobs_parallel",
    "WireError",
    "encode_rows",
    "decode_rows",
]
