"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of tier-1 (``testpaths = ["tests"]``): it runs every workload at
smoke scale in fresh interpreters, which takes ~20 s.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# (spec.ROOT is the same directory, but spec is not importable before this.)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), ROOT) if p not in sys.path]

from benchmarks.e2e import oracles, runner, spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke(tmp_path, tag: str) -> tuple[dict, str]:
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _smoke(tmp, "first"), _smoke(tmp, "second")


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_every_declared_name_appears(smoke_runs):
    (doc, stdout), _ = smoke_runs
    for workload in spec.WORKLOAD_NAMES:
        assert workload in stdout
        for name in spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES:
            assert f"{workload}/{name}" in doc["values"], (workload, name)
    for name in spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES + spec.WORKLOAD_NAMES:
        assert NAME.fullmatch(name), name
        assert name in stdout, name
    for name in spec.PER_LAYER_NAMES:
        assert any(name.startswith(layer + ".") for layer in spec.LAYERS), name
    header = doc["header"]
    assert header["measured"] is True and header["failed"] == 0
    for key in ("git_sha", "nproc", "python", "numpy", "seed", "ops", "wall_s"):
        assert key in header
    assert all(entry["measured"] is True for entry in doc["detail"].values())


def test_flat_values_feed_the_history_hunter(smoke_runs):
    from repro.history.dogfood import flatten_metrics

    (doc, _), _ = smoke_runs
    flat = flatten_metrics(doc["values"])
    assert flat.keys() == doc["values"].keys()


def test_exact_counts_repeat(smoke_runs):
    (first, _), (second, _) = smoke_runs
    for key, entry in first["detail"].items():
        if entry["exact"]:
            assert entry["samples"] == second["detail"][key]["samples"], key
    for workload in spec.WORKLOAD_NAMES:
        key = f"{workload}/detect_f1"
        assert first["values"][key] == second["values"][key]


def test_additive_layer_times_cover_the_traced_operation(smoke_runs):
    from benchmarks.e2e.layers import ADDITIVE

    (doc, _), _ = smoke_runs
    values = doc["values"]
    for workload in spec.WORKLOAD_NAMES:
        covered = sum(values[f"{workload}/{name}"] for name in ADDITIVE)
        traced_op = values[f"{workload}/run_s"] * (
            1 + values[f"{workload}/obs.trace_overhead_pct"] / 100
        )
        # Per-op mean of the self times vs. the median traced op: smoke
        # runs have two operations, so allow a generous band.
        assert 0.5 * traced_op < covered < 2.0 * traced_op, workload


def test_corrupted_digest_is_a_failed_operation(monkeypatch):
    real = oracles.expected_digests

    def corrupted(workload, inputs):
        return {name: "0" * 32 for name in real(workload, inputs)}

    monkeypatch.setattr(oracles, "expected_digests", corrupted)
    run = runner.run_workload("replay_bulk", seconds=0.0, smoke=True)
    assert run.failed == run.attempted > 0
    assert run.metrics["correct_share"] == 0.0
    assert not run.result_line()["correct"]
    assert "digest mismatch" in run.failure
