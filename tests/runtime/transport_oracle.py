"""Reference retransmit schedule: the dict walk the production heap must
match draw for draw.

:class:`WalkTransport` is :class:`~repro.runtime.transport.
ReliableTransport` with ``pump`` and ``next_wakeup`` restated as the
straightforward scan of every pending batch on every call.  Walking
``_pending`` in insertion order retransmits due batches in send order,
which fixes every channel RNG draw; the production min-heap must produce
the same sends, stats, clock and server state.
"""

from __future__ import annotations

from repro.runtime.transport import ReliableTransport


class WalkTransport(ReliableTransport):
    def pump(self, now: float) -> None:
        self.clock = max(self.clock, now)
        for envelope in self.channel.deliver_due(self.clock):
            key = (envelope.rank, envelope.seq)
            accepted = self.server.receive_batch(
                envelope.rank,
                envelope.payload,
                seq=envelope.seq,
                encoded_bytes=self._encoded.get(key),
            )
            if accepted:
                if self._pending.pop(key, None) is not None and self.metrics is not None:
                    self.metrics.counter("transport.batches_acked").inc()
            else:
                retry_at = None
                hint = getattr(self.server, "pop_retry_hint", None)
                if hint is not None:
                    retry_at = hint(envelope.rank, envelope.seq)
                if retry_at is not None:
                    pending = self._pending.get(key)
                    if pending is not None:
                        pending.next_retry_at = max(pending.next_retry_at, retry_at)
                    if self.metrics is not None:
                        self.metrics.counter("transport.backpressure_deferred").inc()
                else:
                    self.channel.stats.late += 1
        for key, pending in list(self._pending.items()):
            if pending.next_retry_at <= self.clock:
                if pending.attempts >= self.policy.max_attempts:
                    del self._pending[key]
                    self.gave_up[pending.rank] = self.gave_up.get(pending.rank, 0) + 1
                    self.server.mark_degraded(pending.rank)
                    if self.metrics is not None:
                        self.metrics.counter("transport.batches_abandoned").inc()
                    continue
                self.channel.stats.retried += 1
                if self.metrics is not None:
                    self.metrics.counter("transport.retries").inc()
                pending.attempts += 1
                self.channel.send(pending.rank, pending.seq, pending.payload, self.clock)
                pending.next_retry_at = self.clock + self.policy.retry_delay(pending.attempts)

    def next_wakeup(self) -> float | None:
        targets = [p.next_retry_at for p in self._pending.values()]
        due = self.channel.next_due()
        if due is not None:
            targets.append(due)
        return min(targets) if targets else None
