"""Simulated performance-monitoring unit (PMU).

Used to validate identified v-sensors (Table 1's *workload max error*
column): the interpreter counts the work units actually executed inside
each sensor; the PMU read adds a small deterministic measurement error
modelling real counters' non-determinism and overcount [Weaver et al.].

The PMU also synthesizes a cache-miss rate per read — the canonical dynamic
rule input (§3.1, §5.3, Fig. 13): the rate depends on the node's memory
pressure at the time of the reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.faults import Fault, mem_factor_at


@dataclass(slots=True)
class PmuSample:
    """One Tick..Tock reading."""

    instructions: float
    cache_miss_rate: float


class Pmu:
    def __init__(self, seed: int, rank: int, faults: tuple[Fault, ...], node_id: int,
                 relative_error: float = 0.01, base_miss_rate: float = 0.05) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence([seed & 0x7FFFFFFF, 77_000 + rank]))
        self._faults = faults
        self._node_id = node_id
        self._relative_error = relative_error
        self._base_miss_rate = base_miss_rate

    def draw(self, t: float) -> tuple[float, float]:
        """The random part of one reading: ``(overcount factor, miss rate)``.

        Exactly one ``normal`` and one ``random`` from this rank's stream,
        in that order — the lockstep tier calls this per lane and applies
        the overcount to a whole work vector at once.
        """
        # Counters overcount, never undercount (matches measured behaviour).
        err = 1.0 + abs(float(self._rng.normal(0.0, self._relative_error)))
        mem = mem_factor_at(self._faults, self._node_id, t)
        # Degraded memory shows up as elevated miss rates.
        miss = min(0.95, self._base_miss_rate * (1.0 / max(mem, 0.05)) ** 1.5)
        miss *= 1.0 + 0.1 * float(self._rng.random())
        return err, miss

    def read(self, true_work: float, t: float) -> PmuSample:
        err, miss = self.draw(t)
        return PmuSample(instructions=true_work * err, cache_miss_rate=miss)
