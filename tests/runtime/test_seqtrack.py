"""SequenceTracker: exactly-once admission, gaps, and restart replay.

At-least-once delivery can redeliver any prefix of a stream — up to a
replay of its *entire* history into a receiver that lost its state — so
the tracker must make a full-history replay idempotent from any point:
every already-seen sequence number is refused, every genuinely new one
is admitted, and the watermark/parked-gap state converges to exactly
what an uncrashed stream would hold.
"""

from __future__ import annotations

from repro.runtime.seqtrack import SequenceTracker


def test_in_order_stream_advances_watermark():
    tracker = SequenceTracker()
    assert tracker.watermark == -1
    for seq in range(5):
        assert tracker.accept(seq)
        assert tracker.watermark == seq
    assert not tracker.accept(3)  # below watermark: refused


def test_gaps_park_above_watermark_until_filled():
    tracker = SequenceTracker()
    assert tracker.accept(0)
    assert tracker.accept(2)
    assert tracker.accept(4)
    assert tracker.watermark == 0  # 1 missing: 2 and 4 parked
    assert tracker.is_acked(2) and tracker.is_acked(4)
    assert not tracker.is_acked(1)
    assert tracker.accept(1)
    assert tracker.watermark == 2  # 1 filled the gap, 2 collapsed in
    assert tracker.accept(3)
    assert tracker.watermark == 4  # 3 collapsed 4 in too
    assert tracker._seen == set()  # nothing left parked


def test_duplicates_refused_in_every_state():
    tracker = SequenceTracker()
    tracker.accept(0)
    tracker.accept(2)
    assert not tracker.accept(0)  # at/below watermark
    assert not tracker.accept(2)  # parked above watermark
    tracker.accept(1)
    assert not tracker.accept(2)  # now collapsed below watermark


def test_full_replay_after_restart_is_exactly_once():
    """Mid-stream worker restart: the spool replays seqs 0..k into the
    tracker that already admitted them — all must bounce — then the
    stream continues and only genuinely new numbers land."""
    tracker = SequenceTracker()
    delivered = [0, 1, 3, 2, 4]  # includes a reorder
    for seq in delivered:
        assert tracker.accept(seq)
    watermark_before = tracker.watermark
    assert watermark_before == 4

    # Crash + replay: the full history arrives again, in order.
    replay_admitted = [seq for seq in sorted(delivered) if tracker.accept(seq)]
    assert replay_admitted == []  # exactly-once held
    assert tracker.watermark == watermark_before

    # The live stream resumes where it left off.
    assert tracker.accept(5)
    assert tracker.watermark == 5


def test_restarted_fresh_tracker_converges_under_replay():
    """The receiver's side of the same story: its tracker is *lost*
    with its state, and the replayed history rebuilds an equivalent one —
    same watermark, same parked set — even with gaps in flight."""
    original = SequenceTracker()
    in_flight = [0, 1, 2, 5, 7]  # 3, 4, 6 still missing at crash time
    for seq in in_flight:
        original.accept(seq)

    rebuilt = SequenceTracker()
    for seq in in_flight:  # spool replays exactly what was delivered
        assert rebuilt.accept(seq)
    assert rebuilt.watermark == original.watermark == 2
    assert rebuilt._seen == original._seen == {5, 7}

    # Post-restart traffic behaves identically on both.
    for seq in (3, 4, 6, 8):
        assert rebuilt.accept(seq) == original.accept(seq)
    assert rebuilt.watermark == original.watermark == 8
