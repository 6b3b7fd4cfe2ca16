"""Property tests: one capacity kernel, two tiers, one oracle.

:class:`VectorClocks` and :class:`RankClock` read one
:class:`~repro.sim.clock.CapacityTable` and do the same float operations
per rank, so every lane's ``now`` must equal its scalar clock's **to the
bit**, call after call.  Both must also stay within 1e-12 relative of the
per-slice loop in :mod:`tests.sim.clock_oracle` — the model without the
table — which sums capacity in another order and nothing else.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.frontend import parse_source
from repro.sim import clock as scalar_mod
from repro.sim.clock import RankClock
from repro.sim.engine import Simulator
from repro.sim.faults import BadNode, CpuContention, NetworkDegradation, SlowMemoryNode
from repro.sim.lockstep import clocks as vector_mod
from repro.sim.lockstep.clocks import VectorClocks
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NodeNoise, NoiseConfig
from repro.workloads import all_workloads
from tests.sim.clock_oracle import oracle_advance

SLICE = 50.0
#: the oracle subtracts slice by slice, the kernel sums capacity per chunk
REL = 1e-12


def _lanes(n, per_node, noise, faults=(), start=0.0, nodes=None):
    """Stand-ins for the per-rank interpreters VectorClocks is built over;
    ``start`` is every lane's time or a list of them."""
    machine = MachineConfig(
        n_ranks=n, ranks_per_node=per_node, noise=noise, seed=77,
        nodes=list(nodes or []),
    )
    faults = tuple(faults)
    return [
        SimpleNamespace(
            machine=machine,
            faults=faults,
            clock=RankClock(
                rank=rank,
                node=machine.node_of_rank(rank),
                noise=NodeNoise(noise, machine.seed, machine.node_of_rank(rank).node_id),
                machine=machine,
                faults=faults,
                now=start[rank] if isinstance(start, list) else start,
            ),
        )
        for rank in range(n)
    ]


def _assert_tiers_agree(n, per_node, noise, calls, **kwargs):
    """Run ``calls`` (work vectors) through both tiers and the oracle."""
    vector = VectorClocks(_lanes(n, per_node, noise, **kwargs))
    scalar = [lane.clock for lane in _lanes(n, per_node, noise, **kwargs)]
    oracle = [lane.clock for lane in _lanes(n, per_node, noise, **kwargs)]
    for work in calls:
        vector.advance_compute(np.asarray(work, dtype=np.float64))
        for clock, slow, units in zip(scalar, oracle, work):
            clock.advance_compute(float(units))
            oracle_advance(slow, float(units))
        assert vector.now.tolist() == [clock.now for clock in scalar]
        for clock, slow in zip(scalar, oracle):
            assert abs(clock.now - slow.now) <= REL * slow.now
    return vector


_WORK = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=40.0),      # ends inside its first piece
    st.floats(min_value=40.0, max_value=2500.0),   # tens of pieces
)

_EDGE = st.one_of(
    st.integers(min_value=0, max_value=60).map(lambda k: k * SLICE),  # on the grid
    st.floats(min_value=0.0, max_value=3000.0),                       # off it
)

#: starts near the origin and across the 511->512 jitter and 255->256 spike
#: chunk seams
_START = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=505 * SLICE, max_value=513 * SLICE),
    st.floats(min_value=255_000.0, max_value=256_500.0),
)


@st.composite
def _fault(draw, near=0.0):
    t0 = near + draw(_EDGE)
    t1 = draw(st.one_of(st.just(float("inf")), _EDGE.map(lambda e: t0 + 1.0 + e)))
    kind = draw(st.sampled_from(["bad", "mem", "cpu", "net"]))
    if kind == "bad":
        return BadNode(draw(st.integers(0, 3)), t0=t0, t1=t1)
    if kind == "mem":
        return SlowMemoryNode(draw(st.integers(0, 3)), t0=t0, t1=t1)
    if kind == "net":  # moves no clock, but its edges cut pieces
        return NetworkDegradation(t0, min(t1, t0 + 4000.0))
    nodes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    return CpuContention(tuple(nodes), t0, min(t1, t0 + 4000.0), cpu_factor=0.35)


def _tiers_agree_on_drawn_cases(data, max_lanes, max_faults, max_calls):
    n = data.draw(st.integers(min_value=1, max_value=max_lanes))
    start = data.draw(_START)
    noise = NoiseConfig(
        jitter_sigma=data.draw(st.sampled_from([0.0, 0.08, 0.3])),
        spike_rate_per_ms=data.draw(st.sampled_from([0.0, 0.003, 0.3])),
    )
    faults = data.draw(st.lists(_fault(near=start), max_size=max_faults))
    calls = data.draw(
        st.lists(st.lists(_WORK, min_size=n, max_size=n), min_size=1, max_size=max_calls)
    )
    per_node = data.draw(st.integers(min_value=1, max_value=3))
    _assert_tiers_agree(n, per_node, noise, calls, faults=faults, start=start)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_both_tiers_equal_and_track_the_oracle(data):
    """Zeros in the work vector, lanes over several nodes, every fault kind
    with edges on and off the grid, noise on and off, repeated calls on one
    object, starts across both chunk seams."""
    _tiers_agree_on_drawn_cases(data, max_lanes=9, max_faults=3, max_calls=3)


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_both_tiers_equal_and_track_the_oracle_wide(data):
    _tiers_agree_on_drawn_cases(data, max_lanes=24, max_faults=6, max_calls=6)


@pytest.mark.parametrize(
    "edge",
    [10 * SLICE, 10 * SLICE + 17.25, 3 * SLICE, 0.5 * SLICE],
    ids=["on-boundary", "off-boundary", "early", "first-slice"],
)
@pytest.mark.parametrize("kind", ["bad", "mem", "cpu"])
def test_fault_edge_strictly_inside_a_block(kind, edge):
    """One call spans a fault's start *and* end."""
    t1 = edge + 6 * SLICE + 3.0
    fault = {
        "bad": BadNode(1, t0=edge, t1=t1),
        "mem": SlowMemoryNode(1, t0=edge, t1=t1),
        "cpu": CpuContention((0, 1), edge, t1, cpu_factor=0.35),
    }[kind]
    _assert_tiers_agree(6, 2, NoiseConfig(), [[1500.0] * 6, [700.0] * 6], faults=[fault])


def test_jitter_chunk_crossing_inside_one_block():
    """Slices 511 -> 512 sit in two chunk tables."""
    _assert_tiers_agree(4, 2, NoiseConfig(), [[900.0] * 4], start=505 * SLICE + 3.0)


def test_spike_chunk_crossing_inside_one_block():
    """Milliseconds 255 -> 256 are served by two cached spike chunks."""
    noise = NoiseConfig(spike_rate_per_ms=0.5)
    _assert_tiers_agree(4, 2, noise, [[1200.0] * 4], start=255_400.0)


def test_calls_starting_inside_pieces_a_spike_cuts():
    """A call starting inside a piece runs at the speed sampled at its own
    start, which a daemon spike may make differ from the piece's tabled
    speed: starts every 7.3 us across three all-candidate milliseconds."""
    starts = [1000.0 * ms + 7.3 * k for ms in range(3) for k in range(137)]
    n = len(starts)
    noise = NoiseConfig(spike_rate_per_ms=1.0)
    _assert_tiers_agree(n, n, noise, [[20.0] * n, [45.0] * n], start=starts)


def test_work_spanning_several_capped_blocks():
    """Calls that cross several chunk tables, lanes ending in different ones."""
    _assert_tiers_agree(
        3, 1, NoiseConfig(), [[60_000.0, 0.0, 45_000.0], [1.0, 30_000.0, 0.0]],
        faults=[BadNode(2)],
    )


def test_lanes_far_apart_in_time():
    """One lane is chunks ahead of the rest: one call, several tables."""
    _assert_tiers_agree(
        3, 1, NoiseConfig(), [[800.0] * 3, [30_000.0, 10.0, 800.0]],
        start=[0.0, 70_000.0, 0.0],
    )


@pytest.mark.parametrize(
    "noise",
    [
        NoiseConfig(jitter_sigma=0.0),
        NoiseConfig(spike_rate_per_ms=0.0),
        NoiseConfig(jitter_sigma=0.0, spike_rate_per_ms=0.0, interrupt_period_us=0.0),
    ],
    ids=["no-jitter", "no-spikes", "silent"],
)
def test_disabled_noise_families(noise):
    _assert_tiers_agree(5, 2, noise, [[300.0, 0.0, 2000.0, 10.0, 999.5]] * 2)


def test_width_one_batch():
    _assert_tiers_agree(1, 1, NoiseConfig(), [[0.0], [1234.5], [0.25]])


def test_heterogeneous_nodes():
    nodes = [NodeConfig(0), NodeConfig(1, cpu_speed=0.5, mem_perf=0.7), NodeConfig(2, cpu_speed=2.0)]
    _assert_tiers_agree(6, 2, NoiseConfig(), [[800.0] * 6, [50.0] * 6], nodes=nodes)


@given(
    start=st.floats(min_value=0.0, max_value=300_000.0),
    calls=st.lists(st.floats(min_value=0.0, max_value=4000.0), min_size=1, max_size=4),
    spike_rate=st.sampled_from([0.0, 0.003, 0.3]),
)
@settings(max_examples=40, deadline=None)
def test_scalar_speed_table_equals_the_blend(start, calls, spike_rate):
    """A fault on another node changes no piece of this one."""
    noise = NoiseConfig(spike_rate_per_ms=spike_rate)
    clean = _lanes(1, 1, noise, start=start)[0].clock
    elsewhere = _lanes(1, 1, noise, start=start, faults=[BadNode(99)])[0].clock
    for units in calls:
        assert clean.advance_compute(units) == elsewhere.advance_compute(units)


# -- the per-slice loop used to stall where (k * S) / S rounds below k ------


@pytest.mark.parametrize("slice_us", [33.3, 49.9])
def test_off_grid_slice_lengths_charge_all_work(slice_us):
    """At ``jitter_slice_us=33.3`` the old boundary formula named ``t``
    itself from slice 63 on.  Both tiers must finish at once, agree with
    each other and the oracle, and charge everything."""
    noise = NoiseConfig(jitter_slice_us=slice_us)
    began = time.perf_counter()
    vector = _assert_tiers_agree(1, 1, noise, [[5000.0]])
    assert time.perf_counter() - began < 1.0
    # speed never exceeds 1 unit/us here, so 5000 units need >= 5000 us
    assert vector.now[0] >= 5000.0


@pytest.mark.parametrize("slice_us", [33.3, 49.9])
def test_off_grid_slice_lengths_many_lanes(slice_us):
    noise = NoiseConfig(jitter_slice_us=slice_us)
    _assert_tiers_agree(
        6, 2, noise, [[5000.0, 0.0, 100.0, 3333.0, 64 * slice_us, 1.0]] * 3,
        faults=[CpuContention((1,), 63 * slice_us, 4000.0)],
    )


def test_lockstep_equals_bytecode_at_off_grid_slice_length():
    wl = all_workloads()["CG"]
    module = parse_source(wl.source())
    machine = MachineConfig(
        n_ranks=4, ranks_per_node=2, noise=NoiseConfig(jitter_slice_us=33.3)
    )
    scalar = Simulator(module, machine, engine="bytecode").run()
    assert scalar.total_time > 64 * 33.3
    assert Simulator(module, machine, engine="lockstep").run() == scalar


def test_step_cap_exhaustion_raises(monkeypatch):
    """A clock that cannot charge its work says so, on both tiers, after a
    bounded number of chunk crossings."""
    monkeypatch.setattr(scalar_mod, "CHUNK_CAP", 3)
    monkeypatch.setattr(vector_mod, "CHUNK_CAP", 3)
    noise = NoiseConfig()
    stalled = [NodeConfig(0, cpu_speed=0.0)]
    began = time.perf_counter()
    with pytest.raises(SimulationError, match="no headway"):
        _lanes(1, 1, noise, nodes=stalled)[0].clock.advance_compute(1.0)
    vector = VectorClocks(_lanes(1, 1, noise, nodes=stalled))
    with pytest.raises(SimulationError, match="no headway"):
        vector.advance_compute(np.array([1.0]))
    assert time.perf_counter() - began < 1.0
