"""Counters, gauges and fixed-bucket histograms with named snapshots.

The registry is the single process-wide sink the instrumented hot paths
increment into.  Every instrument counts its own operations so the
registry can estimate its aggregate self-cost (see
:meth:`MetricsRegistry.estimated_cost_s`) without timing each increment —
timing a ~100 ns increment with a ~30 ns clock call would *be* the
overhead it claims to measure.

A :class:`NullMetricsRegistry` hands out shared no-op instruments so the
disabled path costs one attribute load and one call.
"""

from __future__ import annotations

import copy
import time
from bisect import bisect_left
from typing import Sequence

#: default histogram bucket upper bounds (µs of virtual time): spans the
#: paper's sensor granularities from sub-slice to multi-window
DEFAULT_BUCKETS_US = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "ops")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.ops = 0

    def inc(self, n: int = 1) -> None:
        self.value += n
        self.ops += 1


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value", "ops")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        self.ops = 0

    def set(self, value: float) -> None:
        self.value = value
        self.ops += 1


class Histogram:
    """Fixed-bucket histogram: bucket ``i`` counts ``edges[i-1] < v <= edges[i]``.

    Values above the last edge land in the overflow bucket (index
    ``len(edges)``).  A value exactly on an edge belongs to that edge's
    bucket — the convention the bucket-edge tests pin down.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum", "ops")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_BUCKETS_US) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges!r}")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.sum = 0.0
        self.ops = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value
        self.ops += 1

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Get-or-create instrument registry with snapshot/delta support."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.snapshots: dict[str, dict] = {}
        #: calibrated cost of one instrument op, timed on first use
        self._per_op_s: float | None = None

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_BUCKETS_US) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != inst.edges:
            raise ValueError(
                f"histogram {name!r} re-registered with different edges"
            )
        return inst

    # -- snapshots ---------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict() for n, h in sorted(self._histograms.items())},
        }

    def snapshot(self, label: str) -> dict:
        """Record (and return) a named point-in-time copy of every value."""
        snap = copy.deepcopy(self.as_dict())
        self.snapshots[label] = snap
        return snap

    def delta(self, before: str | dict, after: str | dict) -> dict:
        """Counter and histogram-count differences between two snapshots."""
        a = self.snapshots[before] if isinstance(before, str) else before
        b = self.snapshots[after] if isinstance(after, str) else after
        counters = {
            name: b["counters"][name] - a["counters"].get(name, 0)
            for name in b["counters"]
        }
        histograms = {}
        for name, hist in b["histograms"].items():
            prev = a["histograms"].get(name)
            prev_counts = prev["counts"] if prev else [0] * len(hist["counts"])
            histograms[name] = {
                "edges": hist["edges"],
                "counts": [x - y for x, y in zip(hist["counts"], prev_counts)],
                "total": hist["total"] - (prev["total"] if prev else 0),
            }
        return {"counters": counters, "histograms": histograms}

    # -- self-cost ---------------------------------------------------------

    def op_count(self) -> int:
        instruments = (
            list(self._counters.values())
            + list(self._gauges.values())
            + list(self._histograms.values())
        )
        return sum(inst.ops for inst in instruments)

    def estimated_cost_s(self, calibration_ops: int = 20_000) -> float:
        """Total registry cost: observed op count × calibrated per-op cost.

        Calibration times a scratch counter the first time a cost is asked
        for (so the estimate tracks the machine this run used) and keeps
        the per-op cost: every later call states the same measurement.
        """
        ops = self.op_count()
        if ops == 0:
            return 0.0
        if self._per_op_s is None:
            scratch = Counter("_calibration")
            t0 = time.perf_counter()
            for _ in range(calibration_ops):
                scratch.inc()
            self._per_op_s = (time.perf_counter() - t0) / calibration_ops
        return ops * self._per_op_s


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0
    ops = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Disabled registry: every lookup returns the shared null instrument."""

    enabled = False

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, edges=DEFAULT_BUCKETS_US):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def estimated_cost_s(self, calibration_ops: int = 20_000) -> float:
        return 0.0
