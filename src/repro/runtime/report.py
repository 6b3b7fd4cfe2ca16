"""The final variance report (workflow steps 7–8, §5.5).

The report carries the per-component performance matrices, clustered
variance regions ("white blocks": contiguous time x rank areas of low
normalized performance), per-rank mean performance (persistent bad-node
signal), and data-volume accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.sensors.model import SensorType

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.vsensor_hooks import VSensorRuntime


@dataclass(frozen=True, slots=True)
class VarianceRegion:
    """A clustered low-performance area of one component's matrix."""

    sensor_type: SensorType
    rank_lo: int
    rank_hi: int
    t_start_us: float
    t_end_us: float
    mean_performance: float
    cells: int

    def describe(self) -> str:
        return (
            f"{self.sensor_type.value}: ranks {self.rank_lo}-{self.rank_hi}, "
            f"t={self.t_start_us / 1e6:.1f}s..{self.t_end_us / 1e6:.1f}s, "
            f"perf={self.mean_performance:.2f}"
        )


@dataclass(slots=True)
class VarianceReport:
    n_ranks: int
    total_time_us: float
    matrices: dict[SensorType, np.ndarray] = field(default_factory=dict)
    window_us: float = 200_000.0
    regions: list[VarianceRegion] = field(default_factory=list)
    #: per-rank mean normalized performance per component
    rank_means: dict[SensorType, np.ndarray] = field(default_factory=dict)
    intra_events: int = 0
    inter_events: int = 0
    bytes_to_server: int = 0
    batches_to_server: int = 0
    shutoff_sensors: int = 0
    #: transport hardening: redelivered batches the server deduplicated
    duplicate_batches: int = 0
    #: ranks whose delivery gave up (quiet spool / exhausted retries)
    degraded_ranks: tuple[int, ...] = ()
    #: mean per-event coverage fraction of the inter-process verdicts —
    #: below 1.0 some verdicts rest on partial telemetry
    coverage_confidence: float = 1.0
    #: channel delivery counters when a lossy channel was simulated
    channel_stats: dict[str, int] | None = None
    #: fraction of probe executions represented in analysis output under
    #: governor sampling/suspension (1.0 = every execution recorded or
    #: statistically represented by a kept 1-in-N sibling)
    sampling_coverage: float = 1.0
    #: governor decision totals (demote/promote/suspend/resample) when a
    #: governor ran; ``None`` otherwise
    governor_decisions: dict[str, int] | None = None
    #: (rank, sensor) pairs left suspended by the governor at end of run
    governor_suspended: int = 0

    def data_rate_kb_per_s(self) -> float:
        """Average per-process data generation rate (the §6.4 comparison)."""
        seconds = self.total_time_us / 1e6
        if seconds <= 0 or self.n_ranks == 0:
            return 0.0
        return self.bytes_to_server / 1024.0 / seconds / self.n_ranks

    def suspect_ranks(self, sensor_type: SensorType, threshold: float = 0.8) -> list[int]:
        """Ranks whose mean performance is persistently low — the bad-node
        signal of Fig. 21."""
        means = self.rank_means.get(sensor_type)
        if means is None:
            return []
        overall = np.nanmedian(means)
        out = []
        for rank, value in enumerate(means):
            if np.isfinite(value) and value < threshold * overall:
                out.append(rank)
        return out

    def summary(self) -> str:
        lines = [
            f"vSensor variance report — {self.n_ranks} ranks, "
            f"{self.total_time_us / 1e6:.2f}s",
            f"  intra-process variance events: {self.intra_events}",
            f"  inter-process variance events: {self.inter_events}",
            f"  data to analysis server: {self.bytes_to_server / 1024:.1f} KiB "
            f"({self.data_rate_kb_per_s():.3f} KB/s/process)",
        ]
        if self.channel_stats is not None:
            stats = self.channel_stats
            lines.append(
                "  transport: "
                + " ".join(f"{key}={stats[key]}" for key in sorted(stats))
            )
        if self.duplicate_batches:
            lines.append(f"  deduplicated batches: {self.duplicate_batches}")
        if self.degraded_ranks:
            lines.append(f"  degraded ranks: {list(self.degraded_ranks)}")
        if self.coverage_confidence < 1.0:
            lines.append(f"  inter-event coverage confidence: {self.coverage_confidence:.2f}")
        if self.governor_decisions is not None:
            decisions = self.governor_decisions
            lines.append(
                "  governor: "
                + " ".join(f"{key}={decisions[key]}" for key in sorted(decisions))
                + f" suspended={self.governor_suspended}"
                + f" coverage={self.sampling_coverage:.3f}"
            )
        for region in self.regions[:20]:
            lines.append("  variance: " + region.describe())
        return "\n".join(lines)


def cluster_low_cells(
    matrix: np.ndarray,
    sensor_type: SensorType,
    window_us: float,
    threshold: float = 0.7,
) -> list[VarianceRegion]:
    """Greedy rectangle clustering of below-threshold cells.

    Finds 4-connected components of low cells and reports each component's
    bounding box — precise enough to localize "which ranks, when" as the
    paper's case studies require.
    """
    low = np.isfinite(matrix) & (matrix < threshold)
    if not low.any():
        return []
    visited = np.zeros_like(low, dtype=bool)
    regions: list[VarianceRegion] = []
    n_ranks, n_windows = low.shape
    for r in range(n_ranks):
        for w in range(n_windows):
            if not low[r, w] or visited[r, w]:
                continue
            # BFS flood fill.
            stack = [(r, w)]
            visited[r, w] = True
            cells: list[tuple[int, int]] = []
            while stack:
                cr, cw = stack.pop()
                cells.append((cr, cw))
                for nr, nw in ((cr - 1, cw), (cr + 1, cw), (cr, cw - 1), (cr, cw + 1)):
                    if 0 <= nr < n_ranks and 0 <= nw < n_windows and low[nr, nw] and not visited[nr, nw]:
                        visited[nr, nw] = True
                        stack.append((nr, nw))
            rows = [c[0] for c in cells]
            cols = [c[1] for c in cells]
            values = [matrix[c] for c in cells]
            regions.append(
                VarianceRegion(
                    sensor_type=sensor_type,
                    rank_lo=min(rows),
                    rank_hi=max(rows),
                    t_start_us=min(cols) * window_us,
                    t_end_us=(max(cols) + 1) * window_us,
                    mean_performance=float(np.mean(values)),
                    cells=len(cells),
                )
            )
    regions.sort(key=lambda region: -region.cells)
    return regions


def build_report(runtime: "VSensorRuntime", total_time: float) -> VarianceReport:
    # runtime.server may be a transport proxy; the report reads the real one.
    server = getattr(runtime.server, "server", runtime.server)
    events = server.inter_events
    report = VarianceReport(
        n_ranks=runtime.n_ranks,
        total_time_us=total_time,
        window_us=server.window_us,
        intra_events=len(runtime.events),
        inter_events=len(events),
        bytes_to_server=server.bytes_received,
        batches_to_server=server.batches_received,
        shutoff_sensors=sum(len(d.shutoff) for d in runtime.detectors.values()),
        duplicate_batches=server.duplicate_batches,
        degraded_ranks=tuple(sorted(server.degraded)),
        coverage_confidence=(
            float(np.mean([event.coverage for event in events])) if events else 1.0
        ),
    )
    governor = getattr(runtime, "governor", None)
    if governor is not None:
        report.sampling_coverage = governor.coverage()
        report.governor_decisions = governor.totals()
        report.governor_suspended = governor.suspended_sensors()
    for sensor_type in SensorType:
        matrix = server.performance_matrix(sensor_type)
        if np.isfinite(matrix).any():
            report.matrices[sensor_type] = matrix
            report.rank_means[sensor_type] = server.mean_rank_performance(sensor_type)
            report.regions.extend(
                cluster_low_cells(
                    matrix, sensor_type, server.window_us, runtime.config.threshold
                )
            )
    report.regions.sort(key=lambda region: -region.cells)
    return report
