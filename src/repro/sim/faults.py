"""Fault injection: the performance-variance sources the tool must detect.

Each fault modifies either a node's effective compute/memory speed over a
time window or the network's effective performance.  The case studies map
directly:

* :class:`SlowMemoryNode` — §6.5 / Fig. 21: one node whose memory subsystem
  runs at 55% for the whole run (the "bad node").
* :class:`CpuContention` — §6.4 / Figs. 19–20: an external *noiser* program
  steals CPU from a node set during ``[t0, t1)``.
* :class:`NetworkDegradation` — §6.5 / Fig. 22: the interconnect drops to a
  fraction of its bandwidth during a window (congestion).
* :class:`BadNode` — a uniformly slow node (CPU and memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class Fault:
    """Base class for injected faults: a window ``[t0, t1)`` and factors.

    A window that ends before it starts, a NaN edge or a negative (or NaN)
    factor is refused here: such a fault would inject nothing, yet its
    edges would still split the clock's integration.
    """

    def __post_init__(self) -> None:
        t0, t1 = self.t0, self.t1
        if math.isnan(t0) or math.isnan(t1) or t1 < t0:
            raise SimulationError(f"{self!r}: fault window needs t0 <= t1")
        for f in fields(self):
            if f.name.endswith("factor") and not getattr(self, f.name) >= 0:
                raise SimulationError(f"{self!r}: {f.name} must be >= 0")


@dataclass(frozen=True, slots=True)
class BadNode(Fault):
    node_id: int
    cpu_factor: float = 0.6
    mem_factor: float = 0.6
    t0: float = 0.0
    t1: float = float("inf")


@dataclass(frozen=True, slots=True)
class SlowMemoryNode(Fault):
    node_id: int
    mem_factor: float = 0.55
    t0: float = 0.0
    t1: float = float("inf")


@dataclass(frozen=True, slots=True)
class CpuContention(Fault):
    """An injected noiser competing for CPU (and some memory bandwidth)."""

    node_ids: tuple[int, ...]
    t0: float
    t1: float
    cpu_factor: float = 0.5
    mem_factor: float = 0.8


@dataclass(frozen=True, slots=True)
class NetworkDegradation(Fault):
    t0: float
    t1: float
    #: multiplier on effective network speed (0.3 = 3.3x slower transfers)
    factor: float = 0.3


@dataclass(frozen=True, slots=True)
class IoDegradation(Fault):
    """The shared filesystem slows down (e.g. a concurrent checkpoint storm).

    ``node_ids`` of None hits every node (a parallel-FS-wide problem);
    otherwise only the listed nodes' IO stretches.
    """

    t0: float
    t1: float
    factor: float = 0.3
    node_ids: tuple[int, ...] | None = None


def cpu_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """Combined CPU speed multiplier for ``node_id`` at time ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, BadNode) and fault.node_id == node_id and fault.t0 <= t < fault.t1:
            f *= fault.cpu_factor
        elif isinstance(fault, CpuContention) and node_id in fault.node_ids and fault.t0 <= t < fault.t1:
            f *= fault.cpu_factor
    return f


def mem_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """Combined memory performance multiplier for ``node_id`` at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, (BadNode, SlowMemoryNode)) and getattr(fault, "node_id", -1) == node_id:
            if fault.t0 <= t < fault.t1:
                f *= fault.mem_factor
        elif isinstance(fault, CpuContention) and node_id in fault.node_ids and fault.t0 <= t < fault.t1:
            f *= fault.mem_factor
    return f


def net_factor_at(faults: tuple[Fault, ...], t: float) -> float:
    """Network performance multiplier at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, NetworkDegradation) and fault.t0 <= t < fault.t1:
            f *= fault.factor
    return f


def io_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """IO performance multiplier for ``node_id`` at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, IoDegradation) and fault.t0 <= t < fault.t1:
            if fault.node_ids is None or node_id in fault.node_ids:
                f *= fault.factor
    return f


def fault_boundaries(faults: tuple[Fault, ...]) -> list[float]:
    """All fault window edges (used to segment time integration)."""
    edges: set[float] = set()
    for fault in faults:
        t0 = getattr(fault, "t0", None)
        t1 = getattr(fault, "t1", None)
        if t0 is not None and t0 > 0:
            edges.add(float(t0))
        if t1 is not None and t1 != float("inf"):
            edges.add(float(t1))
    return sorted(edges)
