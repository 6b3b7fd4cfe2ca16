"""Property-based tests of core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.detector import DetectorConfig
from repro.runtime.records import SensorRecord
from repro.sensors.model import SensorType
from tests.runtime.detector_oracle import OneRank, OneRankSlices


# ---------------------------------------------------------------------------
# History invariants (§5.2-§5.3), on the production detector
# ---------------------------------------------------------------------------


def _observe(durations, sensor_id=1):
    """One record per 10 µs slice through a one-rank detector whose every
    closed slice reports (threshold ``inf``); returns the detector, the
    durations it observed and each slice's normalized performance."""
    det = OneRank(DetectorConfig(slice_us=10.0, threshold=float("inf"), shutoff_after=0))
    observed = []
    for k, d in enumerate(durations):
        t_end = 10.0 * k + 5.0
        record = SensorRecord(0, sensor_id, SensorType.COMPUTATION, t_end - d, t_end, 1.0, 0.1)
        observed.append(record.duration)
        det.add(record)
    det.finish()
    return det, observed, [e.performance for e in det.events]


@given(durations=st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_history_normalized_performance_bounded(durations):
    """Normalized performance is always in (0, 1]."""
    _, observed, perfs = _observe(durations)
    assert len(perfs) == len(observed)
    for perf in perfs:
        assert 0.0 < perf <= 1.0


@given(durations=st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_history_standard_is_running_minimum(durations):
    det, observed, _ = _observe(durations)
    assert det.history.standard_time(1) == pytest.approx(min(observed))


@given(
    durations=st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=2, max_size=100),
)
@settings(max_examples=100, deadline=None)
def test_history_fastest_scores_one(durations):
    _, observed, perfs = _observe(durations, sensor_id=7)
    best_index = int(np.argmin(observed))
    assert perfs[best_index] == 1.0


# ---------------------------------------------------------------------------
# Smoothing invariants (§5.1), on the production detector
# ---------------------------------------------------------------------------


def _records(times_and_durations):
    out = []
    for t_end, dur in times_and_durations:
        out.append(
            SensorRecord(
                rank=0,
                sensor_id=1,
                sensor_type=SensorType.COMPUTATION,
                t_start=t_end - dur,
                t_end=t_end,
                instructions=1.0,
                cache_miss_rate=0.1,
            )
        )
    return out


@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=300),
    slice_us=st.sampled_from([10.0, 100.0, 1000.0]),
)
@settings(max_examples=100, deadline=None)
def test_smoothing_conserves_count_and_mass(durations, slice_us):
    """Every record lands in exactly one summary; total duration is
    conserved by the count-weighted means."""
    agg = OneRankSlices(rank=0, slice_us=slice_us)
    t = 0.0
    records = []
    for d in durations:
        t += d + 1.0
        records.append((t, d))
    summaries = []
    for rec in _records(records):
        summaries.extend(agg.add(rec))
    summaries.extend(agg.flush())

    assert sum(s.count for s in summaries) == len(durations)
    total = sum(s.mean_duration * s.count for s in summaries)
    assert total == pytest.approx(sum(durations), rel=1e-9)


@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=2, max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_smoothing_means_within_extremes(durations):
    agg = OneRankSlices(rank=0, slice_us=100.0)
    t = 0.0
    summaries = []
    for d in durations:
        t += d + 1.0
        summaries.extend(agg.add(_records([(t, d)])[0]))
    summaries.extend(agg.flush())
    lo, hi = min(durations), max(durations)
    for s in summaries:
        assert lo - 1e-9 <= s.mean_duration <= hi + 1e-9


@given(durations=st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_smoothing_slice_indices_monotone(durations):
    agg = OneRankSlices(rank=0, slice_us=50.0)
    t = 0.0
    indices = []
    for d in durations:
        t += d
        for s in agg.add(_records([(t, d)])[0]):
            indices.append(s.slice_index)
    for s in agg.flush():
        indices.append(s.slice_index)
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# Sense statistics invariants (Fig. 15)
# ---------------------------------------------------------------------------


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5),
            st.floats(min_value=0.1, max_value=1e3),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=100, deadline=None)
def test_sense_coverage_bounded(data):
    from repro.viz.figures import sense_stats

    starts = np.array([s for s, _ in data])
    ends = starts + np.array([d for _, d in data])
    total = float(ends.max()) + 1.0
    stats = sense_stats(starts, ends, total)
    assert 0.0 < stats.coverage <= 1.0


# ---------------------------------------------------------------------------
# Clock invariants
# ---------------------------------------------------------------------------


@given(
    chunks=st.lists(st.floats(min_value=0.1, max_value=500.0), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_clock_time_monotone_and_additive(chunks):
    """Advancing in chunks is equivalent to advancing once (noise-free),
    and time never decreases."""
    from repro.sim.clock import RankClock
    from repro.sim.machine import MachineConfig, NodeConfig
    from repro.sim.noise import NodeNoise, NoiseConfig

    cfg = NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0)

    def fresh():
        machine = MachineConfig(n_ranks=1, ranks_per_node=1, noise=cfg, mem_fraction=0.0)
        return RankClock(
            rank=0,
            node=NodeConfig(node_id=0),
            noise=NodeNoise(cfg, seed=1, node_id=0),
            machine=machine,
            faults=(),
        )

    stepped = fresh()
    prev = 0.0
    for c in chunks:
        _, now = stepped.advance_compute(c)
        assert now >= prev
        prev = now

    bulk = fresh()
    bulk.advance_compute(sum(chunks))
    assert stepped.now == pytest.approx(bulk.now, rel=1e-9)


# ---------------------------------------------------------------------------
# Identification soundness on generated loop nests
# ---------------------------------------------------------------------------


@st.composite
def loop_nest_program(draw):
    """A random 2-3 deep loop nest where each loop bound is either a
    constant (fixed) or the enclosing loop's index (variant)."""
    depth = draw(st.integers(min_value=2, max_value=3))
    bounds = []
    for level in range(depth):
        if level == 0:
            bounds.append(("const", draw(st.integers(min_value=2, max_value=9))))
        else:
            bounds.append(
                draw(
                    st.one_of(
                        st.tuples(st.just("const"), st.integers(min_value=2, max_value=9)),
                        st.just(("outer", 0)),
                    )
                )
            )
    names = ["i", "j", "k"][:depth]
    body = "count = count + 1;"
    for level in reversed(range(depth)):
        kind, value = bounds[level]
        bound = str(value) if kind == "const" else names[level - 1]
        body = f"for ({names[level]} = 0; {names[level]} < {bound}; {names[level]} = {names[level]} + 1) {{ {body} }}"
    decls = " ".join(f"int {n};" for n in names)
    src = f"global int count = 0;\nint main() {{ {decls} {body} return 0; }}"
    return src, bounds


@given(program=loop_nest_program())
@settings(max_examples=80, deadline=None)
def test_identification_soundness_on_loop_nests(program):
    """A nested loop is a sensor of its parent iff its bound chain below
    the parent is all-constant — checked against the generator's ground
    truth."""
    from repro.frontend.parser import parse_source
    from repro.sensors import SnippetKind, identify_vsensors

    src, bounds = program
    result = identify_vsensors(parse_source(src))
    loop_sensors = [s for s in result.sensors if s.snippet.kind is SnippetKind.LOOP]

    # Ground truth: loop at level L (>=1) is a sensor of its parent iff its
    # own bound is constant.  (Deeper fixedness also requires the chain up.)
    sensor_levels = set()
    for level in range(1, len(bounds)):
        if bounds[level][0] == "const":
            sensor_levels.add(level)
    found_levels = {s.snippet.depth for s in loop_sensors}
    assert found_levels == sensor_levels
