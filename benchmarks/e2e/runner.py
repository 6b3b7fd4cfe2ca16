"""One workload, one fresh interpreter: set-up, timed phase, oracle, metrics."""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from benchmarks.e2e import inputs as inputs_mod
from benchmarks.e2e import measure, ops, oracles, spec

#: everything the benchmark writes (spool files, temp stores) goes here
SCRATCH_ROOT = os.path.join(spec.ROOT, ".bench_e2e_tmp")


@dataclass
class WorkloadRun:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    #: end-to-end metric name -> value, from the untraced operations (in a
    #: traced run these come from half the measuring time)
    end_to_end: dict[str, float]
    #: per-layer metric name -> value; ``None`` unless the run was traced
    per_layer: dict[str, float] | None = None
    ops: int = 0
    #: first failure's traceback or digest diff, for the operator
    failure: str = ""
    flags: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def metrics(self) -> dict[str, float]:
        """What the driver asked for: per-layer if traced, else end-to-end."""
        return self.per_layer if self.traced else self.end_to_end

    def result_line(self) -> dict:
        """The driver's result object (last line of standard output)."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": spec.METRICS[name].unit}
                for name, value in self.metrics.items()
            },
        }


def _set_up(workload: str, seed: int, smoke: bool) -> tuple[object, float]:
    """Build the inputs ``SETUP_REPEATS`` times; median seconds of one."""
    seconds = []
    for _ in range(1 if smoke else spec.SETUP_REPEATS):
        t0 = time.perf_counter()
        built = inputs_mod.build_inputs(workload, seed, smoke)
        seconds.append(time.perf_counter() - t0)
    return built, statistics.median(seconds)


def _first_failure(samples: list[measure.OpSample], expected: dict[str, str]) -> str:
    for sample in samples:
        if sample.error is not None:
            return sample.error
        if sample.digests != expected:
            wrong = sorted(
                name for name in expected if sample.digests.get(name) != expected[name]
            )
            return f"digest mismatch against the other-tier oracle: {wrong}"
    return ""


def run_workload(
    workload: str,
    seed: int = spec.DEFAULT_SEED,
    seconds: float = spec.RUN_SECONDS,
    traced: bool = False,
    smoke: bool = False,
    started: float | None = None,
    trace_out: str | None = None,
) -> WorkloadRun:
    """Run one workload in this interpreter.

    ``started`` is the ``time.perf_counter()`` reading taken at process
    start, before the heavy imports, so ``setup_s`` can include them.
    """
    if workload not in spec.WORKLOAD_NAMES:
        raise KeyError(f"unknown workload {workload!r} (one of {spec.WORKLOAD_NAMES})")
    import_s = time.perf_counter() - started if started is not None else 0.0
    min_ops = 2 if smoke else spec.MIN_OPS
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_ROOT)
    try:
        built, build_s = _set_up(workload, seed, smoke)
        op, cleanup = ops.make_op(workload, built, scratch)
        warm_up = measure.run_once(op)
        cleanup()
        setup_s = import_s + build_s + warm_up.wall_s

        flags = []
        if workload == "tenants_fanout" and (os.cpu_count() or 1) < 2:
            flags.append("oversubscribed")

        # Traced runs split the measuring time: an untraced half gives the
        # api.* spread and the base of obs.trace_overhead_pct.
        share = seconds / 2 if traced else seconds
        samples = measure.timed_phase(op, cleanup, share, min_ops)
        rss_mb = measure.peak_rss_mb()
        traced_pass = None
        if traced:
            from benchmarks.e2e import layers

            traced_pass = layers.traced_pass(
                workload, built, op, cleanup, share,
                min_ops=1 if smoke else min_ops,
                scratch=scratch,
                probe_runs=1 if smoke else 2,
            )
            if trace_out:
                traced_pass.recorder.write(trace_out)

        t0 = time.perf_counter()
        expected = oracles.expected_digests(workload, built)
        oracle_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)  # leave nothing behind (unless shared with another run)
        except OSError:
            pass

    checked = samples + (traced_pass.samples if traced_pass else [])
    failed = sum(not s.correct(expected) for s in checked)
    walls = [s.wall_s for s in samples]
    run_s = statistics.median(walls)
    good_units = sum(s.units for s in samples if s.correct(expected))
    end_to_end = {
        "setup_s": setup_s,
        "run_s": run_s,
        "throughput_per_s": good_units / sum(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": rss_mb,
        "correct_share": 1.0 - failed / len(checked),
        "detect_f1": statistics.fmean(
            statistics.fmean(s.f1) if s.f1 else 0.0 for s in samples
        ),
    }
    per_layer = None
    if traced_pass is not None:
        per_layer = traced_pass.metrics
        q1, _, q3 = measure.quartiles(walls)
        tail_s, tail_pct = measure.tail(walls)
        traced_run_s = statistics.median(s.wall_s for s in traced_pass.samples)
        per_layer.update(
            {
                "api.ops": len(samples),
                "api.op_tail_s": tail_s,
                "api.op_tail_pct": tail_pct,
                "api.op_min_s": min(walls),
                "api.op_iqr_s": q3 - q1,
                "api.oracle_s": oracle_s,
                "obs.trace_overhead_pct": 100.0 * (traced_run_s - run_s) / run_s,
            }
        )
    return WorkloadRun(
        workload=workload,
        seed=seed,
        traced=traced,
        attempted=len(checked),
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        ops=len(samples),
        failure=_first_failure(checked, expected),
        flags=flags,
    )
