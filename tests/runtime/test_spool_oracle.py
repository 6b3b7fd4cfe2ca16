"""The spool writer against its per-row oracle: byte-identical files.

:class:`FileSpool` encodes a batch with one pack per row and one
``os.write`` on a held descriptor; :class:`tests.runtime.spool_oracle.
OracleSpool` is the per-row statement of the same format.  After every
batch, accepted or refused, the two spool directories must hold the same
files with the same bytes.
"""

from __future__ import annotations

import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.runtime.records import SliceSummary
from repro.runtime.transport import FileSpool
from repro.sensors.model import SensorType
from tests.runtime.spool_oracle import OracleSpool

#: shared by every rank, multi-byte UTF-8 included; seven non-empty groups
#: overflow a table prefilled to three free codes
GROUPS = ["", "H", "L", "é", "日本", "band9", "🚀x", "q"]

#: fills the 4,096-code table (with "") up to three free codes
PREFILL = [f"p{i}" for i in range(0x0FFF - 3)]


def _row(rank, group, sensor_id=1, slice_index=0, duration=10.0, count=4, miss=0.25,
         stype=SensorType.COMPUTATION):
    return SliceSummary(
        rank=rank, sensor_id=sensor_id, sensor_type=stype, group=group,
        slice_index=slice_index, t_slice_start=0.0, mean_duration=duration,
        count=count, mean_cache_miss=miss,
    )


@st.composite
def batches(draw):
    rank = draw(st.integers(0, 3))
    rows = draw(
        st.lists(
            st.builds(
                _row,
                st.just(rank),
                st.sampled_from(GROUPS),
                sensor_id=st.integers(0, 2**40),
                slice_index=st.integers(0, 2**40),
                duration=st.floats(width=32),
                count=st.integers(0, 200_000),
                miss=st.one_of(
                    st.floats(0.0, 1.0),
                    st.floats(-2.0, 3.0),
                    st.just(math.nan),
                ),
                stype=st.sampled_from(list(SensorType)),
            ),
            max_size=6,  # zero-row batches included
        )
    )
    return rank, rows


def _contents(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _append_both(spool: FileSpool, oracle: OracleSpool, rank: int, rows: list) -> None:
    """One batch through both writers: both accept, or both refuse."""
    try:
        oracle.append_batch(rank, rows)
    except (ReproError, ValueError) as refused:
        with pytest.raises(ReproError) as raised:
            spool.append_batch(rank, rows)
        if isinstance(refused, ValueError):  # a NaN miss rate: typed in production
            assert "NaN" in str(raised.value)
    else:
        spool.append_batch(rank, rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(batches(), max_size=12), st.booleans())
def test_writer_files_match_the_oracle_byte_for_byte(sequence, prefill):
    with tempfile.TemporaryDirectory() as ours, tempfile.TemporaryDirectory() as theirs:
        oracle = OracleSpool(theirs)
        with FileSpool(ours) as spool:
            if prefill:
                _append_both(spool, oracle, 0, [_row(0, g) for g in PREFILL])
            for rank, rows in sequence:
                _append_both(spool, oracle, rank, rows)
                assert _contents(ours) == _contents(theirs)


def test_refused_overflow_batch_leaves_no_byte_and_no_half_defined_group(tmp_path):
    """A batch that defines a fresh group and then overflows the table is
    refused whole, in both writers: the fresh group's definition frame
    goes out with the first accepted batch that uses it."""
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    oracle = OracleSpool(str(theirs))
    with FileSpool(str(ours)) as spool:
        _append_both(spool, oracle, 0, [_row(0, g) for g in PREFILL])
        # "H" and "L" take two of the three free codes, "é" the last;
        # "日本" overflows, so rank 1's batch is refused after defining three
        overflowing = [_row(1, g) for g in ("H", "L", "é", "日本")]
        _append_both(spool, oracle, 1, overflowing)
        assert not (ours / "rank00001.spool").exists()
        _append_both(spool, oracle, 1, overflowing[1:3])
        _append_both(spool, oracle, 2, overflowing[:1])
        assert _contents(str(ours)) == _contents(str(theirs))


@pytest.mark.slow
def test_recorded_replay_timeline_matches_the_oracle(tmp_path):
    """The e2e ``replay_bulk`` timeline (CG@128, 2,048 batches) writes the
    same 128 rank files through both writers."""
    from benchmarks.e2e.inputs import build_inputs

    timeline = build_inputs("replay_bulk", 4242)
    ours, theirs = str(tmp_path / "ours"), str(tmp_path / "theirs")
    oracle = OracleSpool(theirs)
    with FileSpool(ours) as spool:
        for _, rank, rows in timeline.events:
            spool.append_batch(rank, rows)
            oracle.append_batch(rank, rows)
    files = _contents(ours)
    assert len(files) == timeline.machine.n_ranks == 128
    assert files == _contents(theirs)
