"""Expected digests, computed once and untimed on the *other* tier.

The timed path never judges itself: each workload's expected report
digests come from the tiers the timed operations do not use —

* ``wide_*``: ``engine="bytecode"`` + ``analysis_engine="reference"`` +
  direct delivery (timed: lockstep + columnar, lossy channel when faulty);
* ``tenants_*``: each job alone through unsharded ``run_vsensor`` on
  ``engine="ast"`` + the reference analysis engine, direct delivery
  (timed: bytecode + columnar behind the sharded, admission-controlled,
  lossy service);
* ``replay_*``: in-order direct ingest into an ``engine="reference"``
  server (timed: spool codec or lossy sequenced transport into columnar).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro import api

from benchmarks.e2e import ops
from benchmarks.e2e.inputs import RunCase, TenantInputs, Timeline


def wide(cases: list[RunCase]) -> dict[str, str]:
    expected = {}
    for case in cases:
        run = ops.run_case(
            case, engine="bytecode", analysis_engine="reference", channel=None
        )
        expected[case.name] = ops.digest(run.report, run.runtime.server.inter_events)
    return expected


def tenants(inp: TenantInputs) -> dict[str, str]:
    expected = {}
    for spec in inp.specs:
        run = api.run_vsensor(
            spec.source,
            spec.machine,
            faults=spec.faults,
            window_us=inp.window_us,
            batch_period_us=inp.batch_period_us,
            engine="ast",
            analysis_engine="reference",
            channel=None,
            store=None,
        )
        expected[f"job{spec.job_id:02d}"] = ops.digest(
            run.report, run.runtime.server.inter_events
        )
    return expected


def _spool_quantized(summary, slice_us: float):
    """What the spool's 16-byte record can carry of one summary, restated
    here independently of the codec under test (f32 duration, u16 count and
    miss rate, slice start rebuilt from the slice index)."""
    miss = int(min(max(summary.mean_cache_miss, 0.0), 1.0) * 0xFFFF) / 0xFFFF
    return replace(
        summary,
        t_slice_start=float(summary.slice_index) * slice_us,
        mean_duration=float(np.float32(summary.mean_duration)),
        count=min(summary.count, 0xFFFF),
        mean_cache_miss=miss,
    )


def replay(tl: Timeline, through_spool: bool) -> dict[str, str]:
    server = ops.new_server(tl, engine="reference")
    for _, rank, rows in tl.events:
        if through_spool:
            rows = [_spool_quantized(s, tl.slice_us) for s in rows]
        server.receive_batch(rank, rows)
    out = ops.final_report(tl, server)
    return {out.name: ops.digest(out.report, out.inter_events)}


def expected_digests(workload: str, inputs) -> dict[str, str]:
    if workload.startswith("wide_"):
        return wide(inputs)
    if workload.startswith("tenants_"):
        return tenants(inputs)
    return replay(inputs, through_spool=workload == "replay_bulk")
