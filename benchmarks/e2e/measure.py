"""The timed phase: a closed loop of one client, operations back to back.

Each operation is timed on its own (wall and CPU, waited-for children
included); garbage is collected and the operation's outputs are reduced
to digests and scores *between* operations, outside every timer.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from benchmarks.e2e import ops


@dataclass
class OpSample:
    wall_s: float
    cpu_s: float
    #: output name -> digest; empty when the operation raised
    digests: dict[str, str] = field(default_factory=dict)
    units: float = 0.0
    f1: list[float] = field(default_factory=list)
    error: str | None = None

    def correct(self, expected: dict[str, str]) -> bool:
        return self.error is None and self.digests == expected


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def run_once(op: Callable[[], ops.OpResult], keep=None) -> OpSample:
    """Time one operation; ``keep`` receives the result before it is dropped."""
    gc.collect()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = op()
    except Exception:  # an operation that raises is a failed operation
        return OpSample(
            wall_s=time.perf_counter() - t0,
            cpu_s=cpu_seconds() - cpu0,
            error=traceback.format_exc(),
        )
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if keep is not None:
        keep(result)
    return OpSample(
        wall_s=wall,
        cpu_s=cpu,
        digests={o.name: ops.digest(o.report, o.inter_events) for o in result.outputs},
        units=sum(o.units for o in result.outputs),
        f1=[ops.detection_f1(o) for o in result.outputs],
    )


def timed_phase(
    op: Callable[[], ops.OpResult],
    cleanup: Callable[[], None],
    seconds: float,
    min_ops: int,
    keep=None,
) -> list[OpSample]:
    samples: list[OpSample] = []
    t_end = time.perf_counter() + seconds
    while len(samples) < min_ops or time.perf_counter() < t_end:
        samples.append(run_once(op, keep))
        cleanup()
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; with fewer than 21 samples, half of them beyond."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    index = n - 1 - beyond
    pct = 100.0 * index / (n - 1) if n > 1 else 100.0
    return ordered[index], pct
