"""RunStore units + the ``run_vsensor(history_store=)`` auto-append wiring."""

from __future__ import annotations

import json

import pytest

from repro.api import run_vsensor
from repro.history import (
    HistoryStoreError,
    RunRecord,
    RunStore,
    SensorBaseline,
    decode_record,
    encode_record,
)
from repro.obs import Obs

FP = "a" * 64


def _record(seq: int = -1, label: str = "") -> RunRecord:
    return RunRecord(
        fingerprint=FP,
        seq=seq,
        label=label,
        total_time_us=1000.0 + seq,
        sensors=(SensorBaseline(7, "COMPUTATION", 0.99, 1.0, 12, 42.0),),
    )


def test_append_assigns_sequential_seq(tmp_path):
    store = RunStore(tmp_path)
    assert store.count(FP) == 0
    first = store.append(_record(label="a"))
    second = store.append(_record(label="b"))
    assert (first.seq, second.seq) == (0, 1)
    # A fresh instance recounts from disk and continues the sequence.
    third = RunStore(tmp_path).append(_record(label="c"))
    assert third.seq == 2
    assert [r.label for r in store.runs(FP)] == ["a", "b", "c"]


def test_encode_is_canonical_and_roundtrips():
    record = _record(seq=3)
    line = encode_record(record)
    doc = json.loads(line)
    assert list(doc) == sorted(doc)  # sorted keys at the top level
    assert decode_record(line) == record
    assert encode_record(decode_record(line)) == line


def test_corrupt_line_raises(tmp_path):
    store = RunStore(tmp_path)
    store.append(_record())
    path = store.path_for(FP)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(HistoryStoreError, match="corrupt"):
        RunStore(tmp_path).runs(FP)


@pytest.mark.parametrize("reopen", [False, True], ids=["same-store", "reopened"])
@pytest.mark.parametrize("kept", [0, 1], ids=["torn-first", "torn-second"])
def test_torn_tail_reads_and_appends_as_if_never_started(tmp_path, kept, reopen):
    """An append cut mid-record leaves a final line without its newline;
    the store ignores it and the next append replaces it."""
    torn = RunStore(tmp_path / "torn")
    torn.append(_record(label="a"))
    torn.append(_record(label="b"))
    path = torn.path_for(FP)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:kept]) + lines[kept][: len(lines[kept]) // 2])
    if reopen:
        torn = RunStore(tmp_path / "torn")
    assert torn.count(FP) == kept
    assert [r.label for r in torn.runs(FP)] == ["a"][:kept]
    assert torn.append(_record(label="c")).seq == kept

    clean = RunStore(tmp_path / "clean")
    for label in ["a"][:kept] + ["c"]:
        clean.append(_record(label=label))
    assert path.read_bytes() == clean.path_for(FP).read_bytes()
    assert torn.runs(FP) == clean.runs(FP)
    assert RunStore(tmp_path / "torn").count(FP) == kept + 1


def test_reordered_trajectory_is_detected(tmp_path):
    store = RunStore(tmp_path)
    store.append(_record())
    store.append(_record())
    path = store.path_for(FP)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n")
    with pytest.raises(HistoryStoreError, match="reordered"):
        RunStore(tmp_path).runs(FP)


def test_newer_schema_is_rejected():
    doc = _record(seq=0).to_json()
    doc["schema"] = 999
    with pytest.raises(HistoryStoreError, match="newer"):
        decode_record(json.dumps(doc))


def test_bad_fingerprint_key_rejected(tmp_path):
    store = RunStore(tmp_path)
    with pytest.raises(HistoryStoreError):
        store.path_for("../escape")
    with pytest.raises(HistoryStoreError):
        store.path_for("")


def test_non_finite_total_time_rejected(tmp_path):
    store = RunStore(tmp_path)
    bad = RunRecord(fingerprint=FP, total_time_us=float("inf"))
    with pytest.raises(HistoryStoreError, match="finite"):
        store.append(bad)


def test_missing_trajectory_is_empty(tmp_path):
    assert RunStore(tmp_path).runs("b" * 64) == []
    assert RunStore(tmp_path).fingerprints() == []


# -- run_vsensor auto-append ----------------------------------------------


def test_run_vsensor_appends_to_history_store(tmp_path, simple_module, small_machine):
    from tests.conftest import SIMPLE_MPI_PROGRAM

    first = run_vsensor(
        SIMPLE_MPI_PROGRAM, small_machine, history_store=tmp_path, history_label="r0"
    )
    second = run_vsensor(
        SIMPLE_MPI_PROGRAM,
        small_machine,
        history_store=RunStore(tmp_path),  # prebuilt store object also accepted
        history_label="r1",
    )
    assert first.history_entry is not None and second.history_entry is not None
    assert first.history_entry.fingerprint == second.history_entry.fingerprint
    assert (first.history_entry.seq, second.history_entry.seq) == (0, 1)
    assert first.history_entry.label == "r0"
    assert first.history_entry.sensors, "instrumented run must carry baselines"
    for baseline in first.history_entry.sensors:
        assert 0.0 < baseline.median_perf <= 1.0
        assert 0.0 < baseline.p95_perf <= 1.0
        assert baseline.count > 0
        assert baseline.standard_us > 0.0
    # Identical deterministic runs produce identical baselines.
    assert first.history_entry.sensors == second.history_entry.sensors

    store = RunStore(tmp_path)
    runs = store.runs(first.history_entry.fingerprint)
    assert [r.label for r in runs] == ["r0", "r1"]


def test_history_fingerprint_splits_on_config(tmp_path, small_machine):
    from repro.sim import MachineConfig
    from repro.sim.noise import NoiseConfig
    from tests.conftest import SIMPLE_MPI_PROGRAM

    other_machine = MachineConfig(
        n_ranks=8,
        ranks_per_node=2,
        noise=NoiseConfig(
            jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0
        ),
    )
    a = run_vsensor(SIMPLE_MPI_PROGRAM, small_machine, history_store=tmp_path)
    b = run_vsensor(SIMPLE_MPI_PROGRAM, other_machine, history_store=tmp_path)
    assert a.history_entry.fingerprint != b.history_entry.fingerprint
    assert len(RunStore(tmp_path).fingerprints()) == 2


def test_history_key_ignores_engine_and_splits_on_governor(tmp_path, small_machine):
    """The key holds what moves baselines: tiers are bit-identical by
    contract, so bytecode and lockstep runs extend one trajectory; a
    governed run's sampling changes its baselines, so it starts another."""
    from tests.conftest import SIMPLE_MPI_PROGRAM

    runs = [
        run_vsensor(SIMPLE_MPI_PROGRAM, small_machine, history_store=tmp_path, **kw)
        for kw in (
            {"engine": "bytecode"},
            {"engine": "lockstep"},
            {"engine": "bytecode", "overhead_budget": 0.02},
        )
    ]
    bytecode, lockstep, governed = (run.history_entry for run in runs)
    assert bytecode.fingerprint == lockstep.fingerprint
    assert (bytecode.seq, lockstep.seq) == (0, 1)
    assert bytecode.sensors == lockstep.sensors
    assert governed.fingerprint != bytecode.fingerprint
    assert governed.seq == 0
    assert len(RunStore(tmp_path).fingerprints()) == 2


def test_history_append_emits_obs_span_and_counter(tmp_path, small_machine):
    from tests.conftest import SIMPLE_MPI_PROGRAM

    obs = Obs.create()
    run_vsensor(SIMPLE_MPI_PROGRAM, small_machine, history_store=tmp_path, obs=obs)
    names = {record.name for record in obs.tracer.buffer}
    assert "history.append" in names
    assert obs.metrics.counter("history.appends").value == 1


def test_no_store_means_no_entry(small_machine):
    from tests.conftest import SIMPLE_MPI_PROGRAM

    run = run_vsensor(SIMPLE_MPI_PROGRAM, small_machine)
    assert run.history_entry is None
