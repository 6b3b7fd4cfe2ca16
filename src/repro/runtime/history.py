"""Per-sensor history: one scalar standard time (§5.3).

A v-sensor's work never changes, so its fastest observed (slice-averaged)
execution time is the *standard time*.  Normalized performance of a new
observation is ``standard / observed`` — 1.0 for the fastest ever seen,
0.5 for twice as slow (§5.2).  Storage is O(sensors), not O(records).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def observe_block(
    durations: np.ndarray, prev_standard: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`SensorHistory.observe` over one (sensor, group) run.

    ``durations`` are that key's slice averages in canonical replay order;
    ``prev_standard`` is the standard time carried in from earlier epochs
    (``None`` for a fresh key).  Returns the per-observation normalized
    performance and the running standard after each observation (its last
    entry is the new standard), with the exact branch semantics of the
    scalar path: a strictly faster (or first) observation scores 1.0 and
    lowers the standard, a non-positive duration scores 1.0 without
    touching the standard, everything else scores ``standard / duration``
    against the running cumulative minimum.
    """
    d = np.asarray(durations, dtype=np.float64)
    seed = np.inf if prev_standard is None else prev_standard
    cummin = np.minimum.accumulate(np.concatenate(([seed], d)))
    perf = normalized(d, cummin[:-1])
    if prev_standard is None and len(d):
        # The first observation of a key always defines the standard and
        # scores 1.0, whatever its value (matches the ``standard is None``
        # branch even for non-finite durations).
        perf[0] = 1.0
    return perf, cummin[1:]


def normalized(durations: np.ndarray, standards: np.ndarray) -> np.ndarray:
    """Per-observation normalized performance against the standard in
    force before each observation (``inf`` where there was none yet)."""
    # Both branches of the where() are evaluated eagerly; the discarded
    # one may divide by zero / by the inf seed, so silence those only.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(
            durations < standards, 1.0,
            np.where(durations <= 0.0, 1.0, standards / durations),
        )


@dataclass(slots=True)
class SensorHistory:
    """Standard times keyed by (sensor id, dynamic-rule group)."""

    _standard: dict[tuple[int, str], float] = field(default_factory=dict)

    def observe(self, sensor_id: int, group: str, mean_duration: float) -> float:
        """Update history with one slice average; return normalized perf.

        The first observation of a sensor defines its standard and scores
        1.0; any later faster observation lowers the standard (and the
        normalization of *future* records — the paper's matrices show the
        same effect at the start of a run).
        """
        key = (sensor_id, group)
        standard = self._standard.get(key)
        if standard is None or mean_duration < standard:
            self._standard[key] = mean_duration
            return 1.0
        if mean_duration <= 0.0:
            return 1.0
        return standard / mean_duration

    def standard_time(self, sensor_id: int, group: str = "") -> float | None:
        return self._standard.get((sensor_id, group))

    def entries(self) -> int:
        return len(self._standard)

    @classmethod
    def from_standards(cls, standards: dict[tuple[int, str], float]) -> "SensorHistory":
        """Rehydrate a history from replayed standard times (columnar path)."""
        return cls(_standard=dict(standards))
