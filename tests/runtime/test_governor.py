"""The overhead governor: control table, budget loop, promotion gating.

Three layers of coverage:

* table mechanics — ``decide``/``peek``/``pop_skip`` agreement and the
  exact-accounting invariant (every execution is kept, sampled-out, or
  suppressed, and nothing else),
* the control loop — hysteresis, cheapest-information demotion order,
  probation/confirmation on variance events, sibling fan-out, sampling
  stagger,
* end-to-end — a governor that installs nothing in the engine is
  bit-identical to an ungoverned run, the governor behaves identically
  under all three interpreter tiers, and both spellings of a governed run
  (``overhead_budget=`` and ``governor=GovernorConfig(...)``) evaluate at
  the detector's slice.

The Hypothesis block pins the two properties the bench's coverage
correction rests on: accounting never drifts under arbitrary
demote/promote/probation interleavings, and a programmatic variance
signal restores full telemetry on the whole node immediately.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import run_vsensor
from repro.errors import ReproError
from repro.runtime.detector import DetectorConfig
from repro.runtime.governor import (
    DECISIONS,
    ENABLED,
    PROBATION_US,
    PROMOTE_CONFIRM,
    SAMPLED,
    SUSPENDED,
    GovernorConfig,
    OverheadGovernor,
    SensorControl,
    SensorControlTable,
)
from repro.runtime.records import SensorRecord
from repro.sensors.model import SensorType
from repro.sim import MachineConfig
from repro.sim.hooks import RawRecorder
from tests.conftest import NeutralGovernor, run_with_governor
from tests.runtime.detector_oracle import OneRank

SOURCE = """
global int NITER = 8;
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


def assert_accounting(table: SensorControlTable) -> None:
    for rank_tables in table._ranks.values():
        for ctl in rank_tables.values():
            assert ctl.executions == ctl.kept + ctl.sampled_out + ctl.suppressed
            assert 0 <= ctl.pending_skips <= ctl.sampled_out + ctl.suppressed


# -- table mechanics --------------------------------------------------------


def test_enabled_keeps_every_execution():
    table = SensorControlTable()
    for _ in range(5):
        assert table.peek(0, 7)
        assert table.decide(0, 7)
    ctl = table.get(0, 7)
    assert (ctl.executions, ctl.kept, ctl.sampled_out, ctl.suppressed) == (5, 5, 0, 0)
    assert ctl.covered() == 5
    assert_accounting(table)


def test_sampled_keeps_one_in_n():
    table = SensorControlTable()
    ctl = table.get(0, 7)
    ctl.state = SAMPLED
    ctl.sample_period = 4
    kept = [table.decide(0, 7) for _ in range(12)]
    assert sum(kept) == 3
    # phase 0 start: keeps land on every 4th execution
    assert kept == [False, False, False, True] * 3
    assert ctl.kept == 3 and ctl.sampled_out == 9 and ctl.suppressed == 0
    assert ctl.covered() == 12
    assert_accounting(table)


def test_suspended_suppresses_everything():
    table = SensorControlTable()
    ctl = table.get(0, 7)
    ctl.state = SUSPENDED
    assert not any(table.decide(0, 7) for _ in range(6))
    assert ctl.suppressed == 6 and ctl.covered() == 0
    assert_accounting(table)


def test_peek_always_agrees_with_decide():
    table = SensorControlTable()
    for sid, (state, period) in enumerate(
        [(ENABLED, 1), (SAMPLED, 2), (SAMPLED, 5), (SUSPENDED, 1)]
    ):
        ctl = table.get(0, sid)
        ctl.state = state
        ctl.sample_period = period
        for _ in range(11):
            predicted = table.peek(0, sid)
            assert table.decide(0, sid) == predicted


def test_peek_unknown_sensor_records():
    table = SensorControlTable()
    assert table.peek(3, 99)
    assert not table.peek_skip(3, 99)
    assert not table.pop_skip(3, 99)


def test_pending_skips_pair_ticks_with_tocks():
    table = SensorControlTable()
    ctl = table.get(0, 7)
    ctl.state = SAMPLED
    ctl.sample_period = 3
    for _ in range(7):
        if not table.decide(0, 7):
            assert table.peek_skip(0, 7)
            assert table.pop_skip(0, 7)
    assert ctl.pending_skips == 0
    assert not table.pop_skip(0, 7)


def test_config_validation():
    with pytest.raises(ValueError):
        GovernorConfig(overhead_budget=0.0)
    with pytest.raises(ValueError):
        GovernorConfig(overhead_budget=1.5)
    with pytest.raises(ValueError):
        GovernorConfig(sample_period=1)


def test_paper_shutoff_rule_matches_inline_semantics():
    """The detector's §5.3 rule, with a governor attached: the deciding
    record of a too-short sensor is dropped, the governor hears of the
    shutoff once, at that record, and pins it in the engine's table."""
    gov = OverheadGovernor(GovernorConfig())
    det = OneRank(
        DetectorConfig(min_duration_us=2.0, shutoff_after=3), on_shutoff=gov.on_shutoff
    )
    clock = iter(range(10, 1000, 10))

    def observe(sensor_id, duration):
        """Feed one record; False once the sensor is off."""
        t = float(next(clock))
        det.add(SensorRecord(0, sensor_id, SensorType.COMPUTATION, t - duration, t, 1.0, 0.1))
        return sensor_id not in det.shutoff

    assert observe(1, 10.0)
    assert observe(1, 10.0)
    assert observe(1, 10.0)           # mean 10 >= 2: stays on
    assert 1 not in det.shutoff
    assert observe(2, 1.0)
    assert observe(2, 1.0)
    assert gov.totals()["suspend"] == 0
    assert not observe(2, 1.0)        # mean 1 < 2 at record #3: off
    assert det.shutoff == {2}
    assert det.records_processed == 6
    assert not observe(2, 1.0)        # ignored from now on
    assert det.records_processed == 6
    assert gov.decisions[0]["suspend"] == 1 and gov.totals()["suspend"] == 1
    ctl = gov.table.get(0, 2)
    assert ctl.state == SUSPENDED and ctl.pinned


# -- the budget loop --------------------------------------------------------


def _governor(**overrides) -> OverheadGovernor:
    defaults = dict(
        overhead_budget=0.02,
        sample_period=4,
        eval_period_us=1000.0,
        demote_patience=2,
        promote_patience=1,
    )
    defaults.update(overrides)
    estimates = {
        1: SimpleNamespace(est_work=10.0, est_calls=100.0),
        2: SimpleNamespace(est_work=100.0, est_calls=10.0),
        3: SimpleNamespace(est_work=1000.0, est_calls=1.0),
    }
    return OverheadGovernor(
        GovernorConfig(**defaults), estimates=estimates, probe_cost=0.5,
        ranks_per_node=2,
    )


def _spend(gov: OverheadGovernor, rank: int, sensor_id: int, n: int) -> None:
    for _ in range(n):
        if not gov.table.decide(rank, sensor_id):
            gov.table.pop_skip(rank, sensor_id)


def test_demotion_needs_patience_then_picks_cheapest():
    gov = _governor()
    for sid in (1, 2, 3):
        gov.table.get(0, sid)
    # 40 kept records * 1.0 us over 1000 us = 4% > 2% budget, all on the
    # cheapest sensor — demoting it alone (4% -> 1%) satisfies the budget.
    gov._last_eval[0] = 0.0
    _spend(gov, 0, 1, 40)
    gov.evaluate(0, 1000.0)
    assert gov.table.get(0, 1).state == ENABLED, "first strike must not demote"
    _spend(gov, 0, 1, 40)
    gov.evaluate(0, 2000.0)
    assert gov.table.get(0, 1).state == SAMPLED
    assert gov.table.get(0, 2).state == ENABLED
    assert gov.table.get(0, 3).state == ENABLED
    assert gov.decisions[0]["demote"] == 1
    assert_accounting(gov.table)


def test_sustained_overspend_suspends():
    gov = _governor(demote_patience=1)
    gov.table.get(0, 1)
    gov._last_eval[0] = 0.0
    now = 0.0
    for _ in range(4):
        now += 1000.0
        _spend(gov, 0, 1, 900)  # overwhelming: sampling cannot fit budget
        gov.evaluate(0, now)
        if gov.table.get(0, 1).state == SUSPENDED:
            break
    assert gov.table.get(0, 1).state == SUSPENDED
    assert gov.decisions[0]["suspend"] >= 1
    assert_accounting(gov.table)


def test_headroom_promotes_one_step():
    gov = _governor(demote_patience=1)
    ctl = gov.table.get(0, 1)
    gov._last_eval[0] = 0.0
    _spend(gov, 0, 1, 40)
    gov.evaluate(0, 1000.0)
    assert ctl.state == SAMPLED
    # a quiet slice well under headroom promotes (patience 1)
    gov.evaluate(0, 2000.0)
    assert ctl.state == ENABLED
    assert ctl.sample_period == 1 and ctl.phase == 0
    assert gov.decisions[0]["promote"] == 1


def test_demoted_phase_is_sensor_staggered_and_rank_uniform():
    gov = _governor(demote_patience=1)
    for rank in (0, 1):
        for sid in (1, 2, 3):
            gov.table.get(rank, sid)
        gov._last_eval[rank] = 0.0
        for sid in (1, 2, 3):
            _spend(gov, rank, sid, 400)
        gov.evaluate(rank, 1000.0)
    for rank in (0, 1):
        for sid in (1, 2, 3):
            ctl = gov.table.get(rank, sid)
            assert ctl.state == SAMPLED
            assert ctl.phase == sid % ctl.sample_period
    # uniform across ranks: same sensor, same phase
    assert gov.table.get(0, 2).phase == gov.table.get(1, 2).phase


# -- variance-driven promotion ---------------------------------------------


def _demoted_governor(**overrides) -> OverheadGovernor:
    gov = _governor(demote_patience=1, **overrides)
    for rank in (0, 1, 2):
        for sid in (1, 2, 3):
            gov.table.get(rank, sid)
        gov._last_eval[rank] = 0.0
        for sid in (1, 2, 3):
            _spend(gov, rank, sid, 400)
        gov.evaluate(rank, 1000.0)
        assert gov.table.get(rank, 1).state == SAMPLED
    return gov


def test_programmatic_variance_promotes_node_siblings():
    gov = _demoted_governor()
    gov.on_variance(0, 2000.0)  # performance=0.0 bypasses every gate
    for rank in (0, 1):        # ranks_per_node=2: node 0 = ranks {0, 1}
        for sid in (1, 2, 3):
            assert gov.table.get(rank, sid).state == ENABLED
    for sid in (1, 2, 3):      # node 1 (rank 2) untouched
        assert gov.table.get(2, sid).state == SAMPLED


def test_mild_event_does_not_promote():
    gov = _demoted_governor()
    gov.on_variance(0, 2000.0, performance=0.65, sensor_type=SensorType.COMPUTATION)
    assert gov.table.get(0, 1).state == SAMPLED
    assert not gov._probation


def test_outlier_below_floor_does_not_promote():
    gov = _demoted_governor()
    gov.on_variance(0, 2000.0, performance=0.05, sensor_type=SensorType.COMPUTATION)
    assert gov.table.get(0, 1).state == SAMPLED
    assert not gov._probation


def test_network_events_do_not_promote_by_default():
    gov = _demoted_governor()
    gov.on_variance(0, 2000.0, performance=0.3, sensor_type=SensorType.NETWORK)
    assert gov.table.get(0, 1).state == SAMPLED
    assert not gov._probation


def test_unconfirmed_severe_event_probes_then_restores():
    gov = _demoted_governor()
    gov.on_variance(0, 2000.0, performance=0.3, sensor_type=SensorType.COMPUTATION)
    # probation: both node siblings at full rate, sampling states saved
    for rank in (0, 1):
        assert rank in gov._probation
        assert gov.table.get(rank, 1).state == ENABLED
        assert gov.decisions[rank]["resample"] >= 1
    # records inside the window neither evaluate nor restore
    gov.on_record(0, 2500.0)
    assert 0 in gov._probation
    # first record past the deadline restores the saved sampling state
    gov.on_record(0, 2000.0 + PROBATION_US + 1.0)
    assert 0 not in gov._probation
    ctl = gov.table.get(0, 1)
    assert ctl.state == SAMPLED
    assert ctl.phase == 1 % ctl.sample_period
    assert_accounting(gov.table)


def test_repeated_severe_events_confirm_and_promote():
    gov = _demoted_governor()
    for i in range(PROMOTE_CONFIRM):
        gov.on_variance(
            0, 2000.0 + i * 500.0, performance=0.3,
            sensor_type=SensorType.COMPUTATION,
        )
    for rank in (0, 1):
        assert rank not in gov._probation
        for sid in (1, 2, 3):
            assert gov.table.get(rank, sid).state == ENABLED


def test_pinned_suspensions_never_repromote():
    gov = _demoted_governor()
    ctl = gov.table.get(0, 1)
    ctl.state = SUSPENDED
    ctl.pinned = True
    gov.on_variance(0, 2000.0)
    assert ctl.state == SUSPENDED


def test_tallies_and_summary_surface():
    gov = _demoted_governor()
    totals = gov.totals()
    assert set(totals) == set(DECISIONS)
    assert totals["demote"] == 9  # 3 sensors x 3 ranks
    assert 0.0 < gov.coverage() <= 1.0
    assert gov.summary().startswith("governor budget=2.0% evals=")
    assert "rank    0" in gov.format_tally()


# -- hypothesis: accounting + re-promotion properties -----------------------


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("decide"), st.integers(0, 3), st.integers(1, 3)),
        st.tuples(st.just("evaluate"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("variance"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("severe"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("spin"), st.integers(0, 3), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_accounting_invariant_under_arbitrary_sequences(ops):
    """No demote/promote/probation interleaving may double-count or drop
    a probe execution from the coverage accounting."""
    gov = _governor(demote_patience=1)
    clock = 0.0
    for op, rank, sid in ops:
        clock += 250.0
        if op == "decide":
            if not gov.table.decide(rank, sid):
                gov.table.pop_skip(rank, sid)
        elif op == "evaluate":
            gov.table.get(rank, 1)
            gov.evaluate(rank, clock)
        elif op == "variance":
            gov.on_variance(rank, clock)  # programmatic, bypasses gates
        elif op == "severe":
            gov.on_variance(
                rank, clock, performance=0.3,
                sensor_type=SensorType.COMPUTATION,
            )
        elif op == "spin":
            gov.on_record(rank, clock)
    assert_accounting(gov.table)
    assert 0.0 <= gov.coverage() <= 1.0
    total_execs = sum(
        ctl.executions
        for tables in gov.table._ranks.values()
        for ctl in tables.values()
    )
    assert total_execs == sum(1 for op, _, _ in ops if op == "decide")


@settings(max_examples=40, deadline=None)
@given(
    demoted=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    origin=st.integers(0, 3),
)
def test_programmatic_variance_restores_node_immediately(demoted, origin):
    """After any demotion pattern, one programmatic variance signal must
    re-enable every non-pinned sensor on the origin's whole node — within
    the same call, i.e. well inside one slice."""
    gov = _governor()
    for rank, sid, suspend in demoted:
        ctl = gov.table.get(rank, sid)
        ctl.state = SUSPENDED if suspend else SAMPLED
        ctl.sample_period = gov.config.sample_period
    gov.on_variance(origin, 1000.0)
    node = origin // gov.ranks_per_node
    for rank, sid, _ in demoted:
        ctl = gov.table.get(rank, sid)
        if rank // gov.ranks_per_node == node:
            assert ctl.state == ENABLED, (rank, sid)
        assert not ctl.pinned


# -- end-to-end through the api --------------------------------------------


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(n_ranks=4, ranks_per_node=2)


def _record_stream(raw: RawRecorder):
    return [tuple(r) for r in raw.records]


def test_engine_neutral_governor_is_bit_identical_to_ungoverned(machine):
    """A governor that hears every signal but installs nothing in the
    engine changes no record, no time and no shutoff: the §5.3 rule runs
    the same with or without one."""
    detector = DetectorConfig(shutoff_after=3, min_duration_us=1e9)
    off_raw, neutral_raw = RawRecorder(), RawRecorder()
    off_run = run_vsensor(SOURCE, machine, detector=detector, extra_hooks=(off_raw,))
    neutral = NeutralGovernor()
    neutral_run = run_with_governor(
        neutral, SOURCE, machine, detector=detector, extra_hooks=(neutral_raw,)
    )
    assert _record_stream(off_raw) == _record_stream(neutral_raw), "record stream must not change"
    assert off_run.report.total_time_us == neutral_run.report.total_time_us
    for rank in range(machine.n_ranks):
        assert (
            off_run.runtime.detectors[rank].shutoff
            == neutral_run.runtime.detectors[rank].shutoff
        )
    assert neutral.shutoffs
    assert off_run.runtime.governor is None


def test_default_run_installs_no_governor(machine):
    run = run_vsensor(SOURCE, machine)
    assert run.runtime.governor is None


def test_adaptive_policy_across_engines(machine):
    """All three interpreter tiers honor the control table.

    The two scalar tiers must agree bit-for-bit.  The lockstep tier
    buffers hook events per lane and flushes them at engine poll points,
    so governor *feedback* lags execution by one fused segment — its
    record stream may keep a demoted sensor one extra execution.  The
    decisions themselves must still converge to the scalar outcome, and
    the accounting invariant holds regardless of delivery timing.
    """
    runs = {}
    for engine in ("bytecode", "ast", "lockstep"):
        raw = RawRecorder()
        run = run_vsensor(
            SOURCE,
            machine,
            engine=engine,
            governor=GovernorConfig(
                overhead_budget=0.002, eval_period_us=200.0, demote_patience=1
            ),
            extra_hooks=(raw,),
        )
        gov = run.runtime.governor
        assert gov is not None
        assert gov.totals()["demote"] > 0
        assert_accounting(gov.table)
        runs[engine] = (run, _record_stream(raw), gov.totals())
    assert runs["bytecode"][1] == runs["ast"][1]
    assert runs["bytecode"][0].report.total_time_us == runs["ast"][0].report.total_time_us
    assert runs["bytecode"][2] == runs["ast"][2]
    assert runs["lockstep"][2] == runs["bytecode"][2]


def test_both_spellings_evaluate_at_the_detector_slice(machine):
    """``overhead_budget=`` and ``governor=GovernorConfig(...)`` ask for the
    same governor: both evaluate once per detector slice, and the caller's
    config is left as it was passed."""
    detector = DetectorConfig(slice_us=500.0)
    config = GovernorConfig(overhead_budget=0.02)
    runs = {}
    for key, kwargs in (
        ("budget", {"overhead_budget": 0.02}),
        ("config", {"governor": config}),
    ):
        raw = RawRecorder()
        run = run_vsensor(SOURCE, machine, detector=detector, extra_hooks=(raw,), **kwargs)
        gov = run.runtime.governor
        assert gov.eval_period_us == 500.0
        runs[key] = (gov.config, gov.evaluations, gov.totals(), _record_stream(raw))
    assert config.eval_period_us is None
    assert runs["budget"] == runs["config"]
    assert runs["budget"][1] > 0


def test_explicit_eval_period_wins_over_the_slice():
    explicit = OverheadGovernor(
        GovernorConfig(eval_period_us=200.0),
        detector_config=DetectorConfig(slice_us=500.0),
    )
    assert explicit.eval_period_us == 200.0
    assert OverheadGovernor(GovernorConfig()).eval_period_us == DetectorConfig().slice_us
    assert OverheadGovernor(detector_config=DetectorConfig(slice_us=250.0)).eval_period_us == 250.0


@pytest.mark.parametrize(
    "governor", [GovernorConfig(), OverheadGovernor(GovernorConfig())], ids=["config", "built"]
)
def test_governor_and_overhead_budget_together_raise(machine, governor):
    with pytest.raises(ReproError, match="not both"):
        run_vsensor(SOURCE, machine, governor=governor, overhead_budget=0.05)


def test_a_governor_name_is_not_a_governor(machine):
    with pytest.raises(ReproError, match="GovernorConfig"):
        run_vsensor(SOURCE, machine, governor="adaptive")
