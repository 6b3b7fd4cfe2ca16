"""Analysis-server data-path trajectory: reference vs columnar engine.

Feeds an identical synthetic batch stream — per-rank slice summaries at
32 / 128 ranks — through both analysis engines, in three modes: pure
ingest (one final matrix/detect pass), the §5.5 online pattern of ingest
**interleaved** with matrix + inter-process queries (what
:class:`~repro.runtime.live.LiveReporter` does every period), and at 128
ranks a **reordered** interleaved stream: one batch per rank per query
round, with a seeded share of the batches arriving some rounds late.
The share and the lateness are those measured on the e2e ``replay_live``
workload (128 ranks over its lossy, reordering channel, seeds 4242 and
31337): counting, per batch, the query rounds between its first send and
its first delivery to the server, 662 of 4,096 batches were late, 383 of
them by four rounds (the retry timeout) and the rest by 1-14.  The
reference engine re-sorts and replays the whole keyed store on every
post-ingest query, so the interleaved modes are its quadratic worst case.
The columnar engine observes, per epoch, the new rows and the stored rows
whose running standard a new row moved, and recomputes only the matrix
cells and inter-process means of dirty (window, rank) cells, in order or
not; what remains linear in the store per round is a few vectorized
passes over its columns.  Results land in ``BENCH_server.json`` at the
repo root.

The shape this pins: the engines agree bit-for-bit on every matrix (a
bench that measures a wrong answer measures nothing), the columnar tier
wins every interleaved configuration, by ≥5× on the 128-rank
interleaved workload, and does not lose pure ingest at 32 ranks (the
small-batch case) — the CI gates.  The reordered mode's gates are
deterministic: bit-identical matrices, events and history standards after
every query round, and the rows the columnar replay observed (summed
from the ``server.replay`` spans) at most 25% of what a full replay per
epoch would observe.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_payload

from repro.obs import Obs
from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType

RANK_COUNTS = [32, 128]
ENGINES = ["reference", "columnar"]
N_SLICES = 48
SLICE_BLOCK = 8          # slices per batch
QUERY_EVERY = 16         # interleaved mode: query cadence in batches
REPEATS = 3              # measured runs per configuration; the median is compared
WINDOW_US = 4000.0
#: reordered mode: 16 query rounds of one 3-slice (6-row) batch per
#: rank, as on ``replay_live``; LATE_SHARE of the batches are late, by
#: a number of rounds drawn with the weights measured there (rounds:
#: batches, both seeds); a batch due past the last round arrives in it
REORDERED_RANKS = 128
REORDERED_SLICES = 48
REORDERED_BLOCK = 3
LATE_SHARE = 662 / 4096
LATE_ROUNDS = {
    1: 84, 2: 60, 3: 53, 4: 383, 5: 15, 6: 9, 7: 11, 8: 10, 9: 14, 10: 10, 11: 11, 14: 2,
}
REPLAYED_SHARE_MAX = 0.25
JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_server.json")

_SENSORS = ((1, SensorType.COMPUTATION), (2, SensorType.NETWORK))


def _batch_stream(
    n_ranks: int, n_slices: int = N_SLICES, block: int = SLICE_BLOCK
) -> list[tuple[int, list[SliceSummary], int]]:
    """Deterministic per-rank batches in virtual-time order: every rank
    ships ``block`` slices per batch, the last rank runs ~40 % slow so
    inter-process detection has real events to find."""
    rng = random.Random(BENCH_SEED + n_ranks)
    stream = []
    seqs = {rank: 0 for rank in range(n_ranks)}
    for block_start in range(0, n_slices, block):
        for rank in range(n_ranks):
            skew = 1.4 if rank == n_ranks - 1 else 1.0
            batch = [
                SliceSummary(
                    rank=rank,
                    sensor_id=sensor_id,
                    sensor_type=stype,
                    group="",
                    slice_index=s,
                    t_slice_start=s * 1000.0,
                    mean_duration=(10.0 + rng.random()) * skew,
                    count=4,
                    mean_cache_miss=0.1,
                )
                for s in range(block_start, block_start + block)
                for sensor_id, stype in _SENSORS
            ]
            stream.append((rank, batch, seqs[rank]))
            seqs[rank] += 1
    return stream


def _run(engine: str, n_ranks: int, stream, interleaved: bool) -> AnalysisServer:
    server = AnalysisServer(n_ranks=n_ranks, window_us=WINDOW_US, engine=engine)
    for i, (rank, batch, seq) in enumerate(stream):
        server.receive_batch(rank, batch, seq=seq)
        if interleaved and (i + 1) % QUERY_EVERY == 0:
            server.performance_matrix(SensorType.COMPUTATION)
            server.performance_matrix(SensorType.NETWORK)
            server.detect_inter_process()
    # Ingest is not over until the store says what it holds: a staging
    # store must fold its batches in inside the timer.
    assert server.stored_summaries == server.summaries_received
    server.detect_inter_process()
    for stype in SensorType:
        server.performance_matrix(stype)
    return server


def _reordered_rounds() -> list[list[tuple[int, list[SliceSummary], int]]]:
    """The batches each query round receives: a batch is due in the
    round of its block, and a seeded LATE_SHARE of them arrive a number
    of rounds later drawn from LATE_ROUNDS."""
    rng = random.Random(BENCH_SEED + 1)
    delays, weights = list(LATE_ROUNDS), list(LATE_ROUNDS.values())
    stream = _batch_stream(REORDERED_RANKS, REORDERED_SLICES, REORDERED_BLOCK)
    n_rounds = len(stream) // REORDERED_RANKS
    rounds: list[list] = [[] for _ in range(n_rounds)]
    for i, item in enumerate(stream):
        late = rng.random() < LATE_SHARE
        delay = rng.choices(delays, weights)[0] if late else 0
        rounds[min(i // REORDERED_RANKS + delay, n_rounds - 1)].append(item)
    return rounds


def _run_reordered(engine: str, rounds) -> tuple[AnalysisServer, list, int, int]:
    """Ingest each of ``rounds`` followed by a query round; returns the
    server, its answers after each round, the rows its replay observed,
    and the rows a full replay per epoch would have observed."""
    obs = Obs.create()
    server = AnalysisServer(
        n_ranks=REORDERED_RANKS, window_us=WINDOW_US, engine=engine, obs=obs
    )
    answers = []
    full_rows = 0
    epochs = 0
    for batches in rounds:
        for rank, batch, seq in batches:
            server.receive_batch(rank, batch, seq=seq)
        matrices = [server.performance_matrix(stype) for stype in SensorType]
        answers.append(
            (matrices, server.detect_inter_process(), server.history._standard)
        )
        spans = sum(1 for r in obs.tracer.records() if r.name == "server.replay")
        if spans > epochs:
            epochs = spans
            full_rows += server.stored_summaries
    replayed = sum(r.attrs["rows"] for r in obs.tracer.records() if r.name == "server.replay")
    return server, answers, replayed, full_rows


def _reordered_rows() -> list[dict]:
    """Time both engines on the reordered stream and hold the columnar
    replay to its deterministic gates."""
    rounds = _reordered_rounds()
    rows, runs_of = [], {}
    for engine in ENGINES:
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            server, *runs_of[engine] = _run_reordered(engine, rounds)
            runs.append(round(time.perf_counter() - t0, 4))
        rows.append(
            {"ranks": REORDERED_RANKS, "mode": "reordered", "engine": engine,
             "batches": sum(map(len, rounds)), "summaries": server.summaries_received,
             "seconds": statistics.median(runs), "runs": runs}
        )
    (ref_answers, *_), (col_answers, replayed, full_rows) = (
        runs_of["reference"], runs_of["columnar"]
    )
    for (ref_m, ref_e, ref_h), (col_m, col_e, col_h) in zip(
        ref_answers, col_answers, strict=True
    ):
        for a, b in zip(ref_m, col_m):
            assert np.array_equal(a, b, equal_nan=True), "engines diverged (reordered)"
        assert ref_e == col_e and ref_h == col_h
    assert ref_e, "scenario must produce real events"
    row = next(r for r in rows if r["engine"] == "columnar")
    row["replayed_rows"], row["full_replay_rows"] = replayed, full_rows
    assert replayed <= REPLAYED_SHARE_MAX * full_rows, (replayed, full_rows)
    return rows


@pytest.mark.slow
def test_server_ingest_trajectory():
    rows = []
    finals: dict[tuple[int, str, str], AnalysisServer] = {}
    for n_ranks in RANK_COUNTS:
        stream = _batch_stream(n_ranks)
        for mode, interleaved in (("ingest", False), ("interleaved", True)):
            for engine in ENGINES:
                runs = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    server = _run(engine, n_ranks, stream, interleaved)
                    runs.append(round(time.perf_counter() - t0, 4))
                finals[(n_ranks, mode, engine)] = server
                rows.append(
                    {"ranks": n_ranks, "mode": mode, "engine": engine,
                     "batches": len(stream), "summaries": server.summaries_received,
                     "seconds": statistics.median(runs), "runs": runs}
                )
            # A bench over diverging engines measures nothing: require
            # bit-identical matrices and events before trusting the times.
            ref = finals[(n_ranks, mode, "reference")]
            col = finals[(n_ranks, mode, "columnar")]
            for stype in SensorType:
                assert np.array_equal(
                    ref.performance_matrix(stype),
                    col.performance_matrix(stype),
                    equal_nan=True,
                ), f"engines diverged: {stype} @ {n_ranks} ranks ({mode})"
            assert ref.inter_events == col.inter_events
            assert ref.inter_events, "scenario must produce real events"

    rows.extend(_reordered_rows())

    def seconds_of(ranks, mode, engine):
        for row in rows:
            if (row["ranks"], row["mode"], row["engine"]) == (ranks, mode, engine):
                return row["seconds"]
        raise KeyError((ranks, mode, engine))

    speedups = {}
    for n_ranks in RANK_COUNTS:
        for mode in ("ingest", "interleaved"):
            ref_s = seconds_of(n_ranks, mode, "reference")
            col_s = seconds_of(n_ranks, mode, "columnar")
            speedups[f"{n_ranks}/{mode}"] = round(ref_s / col_s, 2)
    speedups[f"{REORDERED_RANKS}/reordered"] = round(
        seconds_of(REORDERED_RANKS, "reordered", "reference")
        / seconds_of(REORDERED_RANKS, "reordered", "columnar"),
        2,
    )

    payload = {
        "benchmark": "analysis server: reference vs columnar data path",
        "unit": "measured wall-clock seconds per batch stream (ingest + queries), "
                f"median of {REPEATS} runs",
        "results": rows,
        "speedups": speedups,
    }
    write_payload(JSON_PATH, payload)

    print(f"\n{'config':<20s} {'reference':>10s} {'columnar':>9s} {'speedup':>8s}")
    for key, speedup in speedups.items():
        ranks, mode = key.split("/")
        ref_s = seconds_of(int(ranks), mode, "reference")
        col_s = seconds_of(int(ranks), mode, "columnar")
        print(f"{key:<20s} {ref_s:>10.3f} {col_s:>9.3f} {speedup:>7.2f}x")

    # The acceptance gates: ≥5× on the 128-rank interleaved workload, and
    # no small-batch penalty — pure ingest at 32 ranks is not slower.
    assert speedups["128/interleaved"] >= 5.0
    assert speedups["32/ingest"] >= 1.0
    # And the columnar tier must win interleaved mode at every scale.
    assert all(
        speedups[f"{n}/interleaved"] > 1.0 for n in RANK_COUNTS
    )


if __name__ == "__main__":
    test_server_ingest_trajectory()
