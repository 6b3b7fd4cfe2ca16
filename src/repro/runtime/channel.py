"""A deterministic lossy-channel simulator for batch delivery (§5.4).

The paper ships sensor batches to the analysis server "by processes
sending messages to analysis-server or by updating shared files" — and
real deployments run that delivery over exactly the noisy infrastructure
the telemetry is meant to diagnose.  This module models the data path as
an unreliable channel that can **drop**, **duplicate**, **reorder** and
**delay** in-flight batches, with every decision drawn from a seeded RNG
so any failure pattern is exactly replayable.

The channel is payload-agnostic: it moves :class:`Envelope` objects
(rank, sequence number, opaque payload) and keeps per-channel counters
(sent / dropped / duplicated / reordered / delivered / retried / late)
that flow into live reports and the CLI.  Reliability on top of it —
retries, acks, idempotent ingest — lives in
:mod:`repro.runtime.transport` and :mod:`repro.runtime.server`.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ReproError


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Fault model of the rank → server data path.

    All rates are independent per-send probabilities in [0, 1); delays are
    virtual microseconds.  ``seed`` makes the whole failure schedule
    deterministic — the same config produces the same drops on every run.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    #: base one-way latency
    delay_us: float = 200.0
    #: uniform extra latency in [0, jitter_us)
    jitter_us: float = 0.0
    #: extra latency applied to messages picked for reordering — large
    #: enough to leapfrog several batch periods
    reorder_delay_us: float = 250_000.0
    seed: int = 20180224

    _FIELDS = {
        "drop": "drop_rate",
        "dup": "dup_rate",
        "reorder": "reorder_rate",
        "delay": "delay_us",
        "jitter": "jitter_us",
        "reorder_delay": "reorder_delay_us",
        "seed": "seed",
    }

    @classmethod
    def parse(cls, spec: str) -> "ChannelConfig":
        """Parse a CLI spec like ``drop=0.1,dup=0.05,reorder=0.2,seed=7``.

        ``lossy`` is shorthand for the 10% drop + dup + reorder acceptance
        scenario; ``perfect`` is an explicit no-fault channel.
        """
        spec = spec.strip()
        if spec == "perfect":
            return cls()
        if spec == "lossy":
            return cls(drop_rate=0.1, dup_rate=0.1, reorder_rate=0.2)
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            attr = cls._FIELDS.get(key.strip())
            if attr is None or not value:
                raise ReproError(
                    f"bad channel spec {spec!r}: expected KEY=VALUE with KEY in "
                    f"{sorted(cls._FIELDS)} (or 'lossy'/'perfect')"
                )
            kwargs[attr] = int(value) if attr == "seed" else float(value)
        for rate_attr in ("drop_rate", "dup_rate", "reorder_rate"):
            rate = kwargs.get(rate_attr, 0.0)
            if not 0.0 <= float(rate) < 1.0:
                raise ReproError(f"bad channel spec {spec!r}: {rate_attr} must be in [0, 1)")
        return cls(**kwargs)  # type: ignore[arg-type]

    @property
    def is_faulty(self) -> bool:
        return self.drop_rate > 0 or self.dup_rate > 0 or self.reorder_rate > 0


@dataclass(slots=True)
class ChannelStats:
    """Per-channel delivery counters (live-report / CLI observability)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: retransmissions initiated by the reliable transport
    retried: int = 0
    #: deliveries that arrived after the server had already accepted the
    #: same sequence number (redundant copies and stale retries)
    late: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "retried": self.retried,
            "late": self.late,
        }


@dataclass(frozen=True, slots=True)
class Envelope:
    """One in-flight copy of a batch."""

    rank: int
    seq: int
    payload: Sequence
    sent_at: float
    deliver_at: float
    #: True for channel-created duplicate copies
    is_copy: bool = False


@dataclass(slots=True)
class LossyChannel:
    """Seeded unreliable in-memory channel between ranks and the server.

    Messages are held in a delivery heap keyed by virtual arrival time;
    :meth:`deliver_due` releases everything due by ``now`` in arrival
    order.  With an all-zero config this degrades to a perfectly reliable
    FIFO channel with fixed latency.
    """

    config: ChannelConfig = field(default_factory=ChannelConfig)
    stats: ChannelStats = field(default_factory=ChannelStats)
    _rng: random.Random = field(default_factory=random.Random)
    _heap: list[tuple[float, int, Envelope]] = field(default_factory=list)
    _order: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.config.seed)

    # -- sending -----------------------------------------------------------

    def send(self, rank: int, seq: int, payload: Sequence, now: float) -> None:
        """Submit one batch copy; the channel decides its fate."""
        self.stats.sent += 1
        if self._rng.random() < self.config.drop_rate:
            self.stats.dropped += 1
        else:
            self._enqueue(rank, seq, payload, now, is_copy=False)
        if self.config.dup_rate and self._rng.random() < self.config.dup_rate:
            self.stats.duplicated += 1
            self._enqueue(rank, seq, payload, now, is_copy=True)

    def _enqueue(self, rank: int, seq: int, payload: Sequence, now: float, is_copy: bool) -> None:
        delay = self.config.delay_us
        if self.config.jitter_us:
            delay += self._rng.random() * self.config.jitter_us
        if self.config.reorder_rate and self._rng.random() < self.config.reorder_rate:
            self.stats.reordered += 1
            delay += self._rng.random() * self.config.reorder_delay_us
        envelope = Envelope(
            rank=rank, seq=seq, payload=payload, sent_at=now,
            deliver_at=now + delay, is_copy=is_copy,
        )
        heapq.heappush(self._heap, (envelope.deliver_at, self._order, envelope))
        self._order += 1

    # -- receiving ---------------------------------------------------------

    def deliver_due(self, now: float) -> list[Envelope]:
        """Pop every envelope whose arrival time has passed, in order."""
        out: list[Envelope] = []
        while self._heap and self._heap[0][0] <= now:
            out.append(heapq.heappop(self._heap)[2])
        self.stats.delivered += len(out)
        return out

    def pending(self) -> int:
        return len(self._heap)

    def next_due(self) -> float | None:
        """Arrival time of the earliest in-flight envelope, if any."""
        return self._heap[0][0] if self._heap else None


def perfect_channel(delay_us: float = 0.0) -> LossyChannel:
    """A fault-free channel (useful as a test/control transport)."""
    return LossyChannel(config=ChannelConfig(delay_us=delay_us))


def as_channel(spec: str | ChannelConfig | LossyChannel | None) -> LossyChannel | None:
    """Coerce a channel spec — a CLI-style string (:meth:`ChannelConfig.
    parse`), a config, or a built channel — to a channel.  ``None`` stays
    ``None``: whether that means "no transport" or :func:`perfect_channel`
    is the caller's default to pick."""
    if isinstance(spec, str):
        spec = ChannelConfig.parse(spec)
    if isinstance(spec, ChannelConfig):
        spec = LossyChannel(config=spec)
    return spec


def with_seed(config: ChannelConfig, seed: int) -> ChannelConfig:
    """The same fault model with a different failure schedule."""
    return replace(config, seed=seed)
