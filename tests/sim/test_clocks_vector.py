"""Property tests: the lockstep tier's block integrator == per-rank clocks.

:class:`VectorClocks` lays a ``(lanes, slices)`` grid over the steps each
lane's :meth:`RankClock.advance_compute` loop would take and integrates a
block of them per NumPy pass.  :class:`RankClock` is the oracle: whatever
the noise, faults, node layout, start time or block size, every lane's
``now`` must equal its scalar clock's **to the bit**, call after call.
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
from repro.sim.faults import BadNode, CpuContention, SlowMemoryNode
from repro.sim.lockstep import clocks as vector_mod
from repro.sim.lockstep.clocks import VectorClocks
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NodeNoise, NoiseConfig
from repro.workloads import all_workloads

SLICE = 50.0


def _lanes(n, per_node, noise, faults=(), start=0.0, nodes=None):
    """Stand-ins for the per-rank interpreters VectorClocks is built over."""
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
                now=start,
            ),
        )
        for rank in range(n)
    ]


def _assert_bit_equal(n, per_node, noise, calls, **kwargs):
    """Run ``calls`` (work vectors) through both tiers; compare every lane."""
    vector = VectorClocks(_lanes(n, per_node, noise, **kwargs))
    oracle = [lane.clock for lane in _lanes(n, per_node, noise, **kwargs)]
    for work in calls:
        vector.advance_compute(np.asarray(work, dtype=np.float64))
        for clock, units in zip(oracle, work):
            clock.advance_compute(float(units))
        expected = [clock.now for clock in oracle]
        assert vector.now.tolist() == expected
    return vector


_WORK = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=40.0),      # ends inside its first slice
    st.floats(min_value=40.0, max_value=2500.0),   # tens of slices
)

_EDGE = st.one_of(
    st.integers(min_value=0, max_value=60).map(lambda k: k * SLICE),  # on the grid
    st.floats(min_value=0.0, max_value=3000.0),                       # off it
)


@st.composite
def _fault(draw):
    t0 = draw(_EDGE)
    t1 = draw(st.one_of(st.just(float("inf")), _EDGE.map(lambda e: t0 + 1.0 + e)))
    kind = draw(st.sampled_from(["bad", "mem", "cpu"]))
    if kind == "bad":
        return BadNode(draw(st.integers(0, 3)), t0=t0, t1=t1)
    if kind == "mem":
        return SlowMemoryNode(draw(st.integers(0, 3)), t0=t0, t1=t1)
    nodes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    return CpuContention(tuple(nodes), t0, min(t1, t0 + 4000.0), cpu_factor=0.35)


@given(
    n=st.integers(min_value=1, max_value=9),
    per_node=st.integers(min_value=1, max_value=3),
    faults=st.lists(_fault(), max_size=3),
    start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2000.0)),
    sigma=st.sampled_from([0.0, 0.08, 0.3]),
    spike_rate=st.sampled_from([0.0, 0.003, 0.3]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_block_integrator_equals_rank_clocks(
    n, per_node, faults, start, sigma, spike_rate, data
):
    """Zeros in the work vector, lanes over several nodes, every fault kind
    with edges on and off the slice grid, repeated calls on one object."""
    noise = NoiseConfig(jitter_sigma=sigma, spike_rate_per_ms=spike_rate)
    calls = data.draw(
        st.lists(st.lists(_WORK, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    _assert_bit_equal(n, per_node, noise, calls, faults=faults, start=start)


@pytest.mark.parametrize(
    "edge",
    [10 * SLICE, 10 * SLICE + 17.25, 3 * SLICE, 0.5 * SLICE],
    ids=["on-boundary", "off-boundary", "early", "first-slice"],
)
@pytest.mark.parametrize("kind", ["bad", "mem", "cpu"])
def test_fault_edge_strictly_inside_a_block(kind, edge):
    """One call whose block spans a fault's start *and* end."""
    t1 = edge + 6 * SLICE + 3.0
    fault = {
        "bad": BadNode(1, t0=edge, t1=t1),
        "mem": SlowMemoryNode(1, t0=edge, t1=t1),
        "cpu": CpuContention((0, 1), edge, t1, cpu_factor=0.35),
    }[kind]
    vector = _assert_bit_equal(
        6, 2, NoiseConfig(), [[1500.0] * 6, [700.0] * 6], faults=[fault]
    )
    # far fewer passes than steps: the edge shortened blocks, not every one
    assert vector.blocks * 4 < vector.steps


def test_jitter_chunk_crossing_inside_one_block():
    """Slices 511 -> 512 are served by two cached jitter chunks."""
    start = 505 * SLICE + 3.0
    vector = _assert_bit_equal(4, 2, NoiseConfig(), [[900.0] * 4], start=start)
    assert vector.blocks <= 2


def test_spike_chunk_crossing_inside_one_block():
    """Milliseconds 255 -> 256 are served by two cached spike chunks."""
    noise = NoiseConfig(spike_rate_per_ms=0.5)
    vector = _assert_bit_equal(4, 2, noise, [[1200.0] * 4], start=255_400.0)
    assert vector.blocks <= 3


def test_work_spanning_several_capped_blocks():
    vector = _assert_bit_equal(
        3, 1, NoiseConfig(), [[60_000.0, 0.0, 45_000.0], [1.0, 30_000.0, 0.0]],
        faults=[BadNode(2)],
    )
    assert vector.blocks >= 2 * (45_000.0 / SLICE) / vector_mod._BLOCK_SLICES
    assert vector.steps > 2_700


def test_lanes_far_apart_in_time():
    """One lane chunks ahead of the rest: the gather spans several chunks."""
    noise = NoiseConfig()
    lanes = _lanes(3, 1, noise)
    lanes[1].clock.now = 70_000.0
    vector = VectorClocks(lanes)
    oracle = [lane.clock for lane in _lanes(3, 1, noise)]
    oracle[1].now = 70_000.0
    vector.advance_compute(np.array([800.0, 800.0, 800.0]))
    assert vector.now.tolist() == [c.advance_compute(800.0)[1] for c in oracle]


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
    _assert_bit_equal(5, 2, noise, [[300.0, 0.0, 2000.0, 10.0, 999.5]] * 2)


def test_width_one_batch():
    vector = _assert_bit_equal(1, 1, NoiseConfig(), [[0.0], [1234.5], [0.25]])
    assert vector.blocks == 2


def test_heterogeneous_nodes():
    nodes = [NodeConfig(0), NodeConfig(1, cpu_speed=0.5, mem_perf=0.7), NodeConfig(2, cpu_speed=2.0)]
    _assert_bit_equal(6, 2, NoiseConfig(), [[800.0] * 6, [50.0] * 6], nodes=nodes)


@given(
    start=st.floats(min_value=0.0, max_value=300_000.0),
    calls=st.lists(st.floats(min_value=0.0, max_value=4000.0), min_size=1, max_size=4),
    spike_rate=st.sampled_from([0.0, 0.003, 0.3]),
)
@settings(max_examples=40, deadline=None)
def test_scalar_speed_table_equals_the_blend(start, calls, spike_rate):
    """A fault-free RankClock reads speeds from a per-chunk table; one whose
    only fault sits on another node evaluates the blend at every step."""
    noise = NoiseConfig(spike_rate_per_ms=spike_rate)
    tabled = _lanes(1, 1, noise, start=start)[0].clock
    blended = _lanes(1, 1, noise, start=start, faults=[BadNode(99)])[0].clock
    for units in calls:
        assert tabled.advance_compute(units) == blended.advance_compute(units)


# -- the integrator used to stall where (k * S) / S rounds below k ----------


@pytest.mark.parametrize("slice_us", [33.3, 49.9])
def test_off_grid_slice_lengths_charge_all_work(slice_us):
    """At ``jitter_slice_us=33.3`` the boundary formula named ``t`` itself
    from slice 63 on: the loop span its cap and dropped ~2,900 of 5,000
    units.  Both tiers must finish at once, agree, and charge everything."""
    noise = NoiseConfig(jitter_slice_us=slice_us)
    began = time.perf_counter()
    scalar = _lanes(1, 1, noise)[0].clock
    start, end = scalar.advance_compute(5000.0)
    vector = VectorClocks(_lanes(1, 1, noise))
    vector.advance_compute(np.array([5000.0]))
    assert time.perf_counter() - began < 1.0
    assert vector.now.tolist() == [end]
    # speed never exceeds 1 unit/us here, so 5000 units need >= 5000 us
    assert end - start >= 5000.0
    assert vector.steps >= 5000.0 / slice_us


@pytest.mark.parametrize("slice_us", [33.3, 49.9])
def test_off_grid_slice_lengths_many_lanes(slice_us):
    noise = NoiseConfig(jitter_slice_us=slice_us)
    _assert_bit_equal(
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
    """A clock that cannot charge its work says so; it used to return."""
    monkeypatch.setattr(scalar_mod, "STEP_CAP", 500)
    monkeypatch.setattr(vector_mod, "STEP_CAP", 500)
    noise = NoiseConfig()
    stalled = [NodeConfig(0, cpu_speed=0.0)]
    with pytest.raises(SimulationError, match="no headway"):
        _lanes(1, 1, noise, nodes=stalled)[0].clock.advance_compute(1.0)
    vector = VectorClocks(_lanes(1, 1, noise, nodes=stalled))
    with pytest.raises(SimulationError, match="no headway"):
        vector.advance_compute(np.array([1.0]))
