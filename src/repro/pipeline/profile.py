"""Per-pass profiling records of one compile."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class PassTiming:
    """Wall time and cache outcome of one pass execution."""

    name: str
    seconds: float
    cache_hit: bool


@dataclass(slots=True)
class PipelineProfile:
    """Per-pass wall time and cache hit/miss accounting for one compile.

    Exposed on :class:`~repro.api.StaticResult` for programmatic use and
    rendered by the CLI's ``--profile-passes`` flag.
    """

    timings: list[PassTiming] = field(default_factory=list)
    #: False when caching was off (no store, or unfingerprintable config)
    cache_enabled: bool = True
    #: why caching was disabled, when it was
    cache_disabled_reason: str = ""

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def hits(self) -> int:
        return sum(1 for t in self.timings if t.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for t in self.timings if not t.cache_hit)

    def format_table(self) -> str:
        """A fixed-width table, one row per pass, totals last."""
        lines = [f"{'pass':<12s} {'wall (ms)':>10s} {'cache':>6s}"]
        for t in self.timings:
            lines.append(
                f"{t.name:<12s} {t.seconds * 1e3:>10.3f} "
                f"{'hit' if t.cache_hit else 'miss':>6s}"
            )
        lines.append(
            f"{'total':<12s} {self.total_seconds * 1e3:>10.3f} "
            f"{f'{self.hits}/{len(self.timings)}':>6s}"
        )
        if not self.cache_enabled and self.cache_disabled_reason:
            lines.append(f"(cache disabled: {self.cache_disabled_reason})")
        return "\n".join(lines)
