"""Golden-trace regression suite.

Each scenario runs the full pipeline with observability enabled under a
fixed seed and zero simulated noise, canonicalizes the result (span tree
structure + discrete attrs + counter values + histogram bucket counts,
all timestamps scrubbed — see :mod:`repro.obs.golden`) and compares it
**exactly** against a checked-in JSON document.

When instrumentation changes on purpose, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_traces.py

and commit the diff — the point is that span-structure drift is always a
reviewed change, never an accident.  Scenarios run with ``store=None``:
the process-wide artifact store would make ``cache_hit`` attributes
depend on what ran earlier in the test session.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import run_vsensor
from repro.obs import Obs, canonical_obs
from repro.sim import MachineConfig
from repro.sim.noise import NoiseConfig
from repro.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

SIMPLE_SOURCE = """
global int NITER = 6;
void kernel() {
    int i;
    for (i = 0; i < 10; i = i + 1) compute_units(20);
}
int main() {
    int n;
    for (n = 0; n < NITER; n = n + 1) {
        kernel();
        MPI_Allreduce(16);
    }
    return 0;
}
"""


#: exercises the lockstep tier's full lifecycle deterministically: rank 0
#: takes a data-dependent detour with an MPI rendezvous inside it (diverge →
#: whole-batch drain), and the allreduce after the branch re-fuses the batch,
#: so the golden trace pins nonzero ``sim.lockstep.*`` counters.
LOCKSTEP_SOURCE = """
global int NITER = 4;
void kernel() {
    int i;
    for (i = 0; i < 10; i = i + 1) compute_units(20);
}
int main() {
    int n; int r;
    r = MPI_Comm_rank();
    for (n = 0; n < NITER; n = n + 1) {
        kernel();
        if (r == 0) {
            compute_units(9);
            MPI_Sendrecv(0, 8);
        }
        MPI_Allreduce(16);
    }
    return 0;
}
"""


def _machine(n_ranks: int = 4) -> MachineConfig:
    return MachineConfig(
        n_ranks=n_ranks,
        ranks_per_node=2,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )


def _scenario_simple_bytecode():
    return dict(source=SIMPLE_SOURCE, machine=_machine(), engine="bytecode")


def _scenario_simple_ast():
    return dict(source=SIMPLE_SOURCE, machine=_machine(), engine="ast")


def _scenario_lossy_channel():
    return dict(
        source=SIMPLE_SOURCE,
        machine=_machine(),
        engine="bytecode",
        channel="drop=0.2,dup=0.1,seed=7",
    )


def _scenario_fwq_micro():
    fwq = get_workload("FWQ")
    return dict(source=fwq.source(scale=1), machine=_machine(n_ranks=2), engine="bytecode")


def _scenario_live_interleaved():
    # Interleaved ingest/query: the live reporter pulls matrices while
    # batches are still arriving, so the trace pins the columnar server's
    # per-epoch ``server.replay`` spans and replay-kind counters.
    from repro.runtime.live import LiveReporter

    # Periods tuned to the micro-program's ~1.8 ms virtual runtime so the
    # trace shows both replay kinds (the full first epoch, then incremental
    # re-observes of what late rows move) under interleaving.
    return dict(
        source=SIMPLE_SOURCE,
        machine=_machine(),
        engine="bytecode",
        batch_period_us=1000.0,
        live=LiveReporter(period_us=500.0),
    )


def _scenario_lockstep():
    return dict(source=LOCKSTEP_SOURCE, machine=_machine(), engine="lockstep")


def _scenario_governor():
    # Adaptive overhead governor under a deliberately tiny budget + short
    # eval period so the micro-program's ~1.8 ms run produces demotions:
    # the golden pins the ``governor.*`` counters and the per-rank
    # demote/promote attrs on ``runtime.rank_detector`` spans.  Governor
    # decisions are pure virtual-time accounting, so the trace is exactly
    # as deterministic as the ungoverned scenarios.
    from repro.runtime.governor import GovernorConfig

    return dict(
        source=SIMPLE_SOURCE,
        machine=_machine(),
        engine="bytecode",
        governor=GovernorConfig(
            overhead_budget=0.002, eval_period_us=200.0, demote_patience=1
        ),
    )


def _scenario_multi_job_sharded():
    # Two tenants through the sharded service: the trace pins the per-job
    # ``vsensor.simulate``/``vsensor.analyze`` spans, the ``service.ingest``
    # span and the per-shard ``service.shard.*.apply`` spans and counters
    # (a query reads the job's store in place, so it leaves no span) — the
    # whole multi-tenant span topology is a reviewed artifact.
    from repro.api import JobSpec, run_multi_job

    def runner(obs):
        specs = [
            JobSpec(SIMPLE_SOURCE, _machine(), job_id=0),
            JobSpec(SIMPLE_SOURCE, _machine(), job_id=1),
        ]
        run_multi_job(
            specs,
            n_shards=2,
            window_us=1000.0,
            batch_period_us=500.0,
            store=None,
            obs=obs,
        )

    return dict(runner=runner)


SCENARIOS = {
    "governor": _scenario_governor,
    "lockstep": _scenario_lockstep,
    "simple_bytecode": _scenario_simple_bytecode,
    "simple_ast": _scenario_simple_ast,
    "lossy_channel": _scenario_lossy_channel,
    "fwq_micro": _scenario_fwq_micro,
    "live_interleaved": _scenario_live_interleaved,
    "multi_job_sharded": _scenario_multi_job_sharded,
}


def _observe(scenario: dict) -> dict:
    obs = Obs.create()
    runner = scenario.pop("runner", None)
    if runner is not None:
        runner(obs=obs)
    else:
        run_vsensor(store=None, obs=obs, **scenario)
    return canonical_obs(obs)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name):
    document = _observe(SCENARIOS[name]())
    path = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if not path.exists():
        pytest.fail(
            f"golden file {path.name} missing — regenerate with REPRO_UPDATE_GOLDEN=1"
        )
    expected = json.loads(path.read_text())
    assert document == expected, (
        f"canonical trace for {name!r} drifted from {path.name}; if the "
        "instrumentation change is intentional, regenerate the goldens"
    )


def test_golden_runs_are_deterministic():
    """Two fresh runs of one scenario canonicalize identically."""
    scenario = SCENARIOS["simple_bytecode"]
    assert _observe(scenario()) == _observe(scenario())


def test_no_stray_golden_files():
    """Every checked-in golden corresponds to a scenario (catches renames)."""
    names = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert names == set(SCENARIOS)
