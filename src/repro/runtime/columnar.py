"""Columnar summary store with per-stream incremental replay (§5.4–§5.5).

The analysis server's derived state — normalized performance per slice,
per-cell matrix means, inter-process rank comparisons — is a function of
the *canonically ordered* summary store, not of batch arrival order.  The
oracle (:mod:`repro.runtime.reference`) realizes that as a Python dict
keyed by summary identity plus a full re-sort-and-replay after every
ingest; interleaved ingest/query (the
:class:`~repro.runtime.live.LiveReporter` pattern) then degrades
quadratically in run length.

This module is the production store behind the same interface, and a
query round costs what changed since the last one.  Ingest only *stages*
a batch, in whatever form it came; the first read of an epoch settles the
store, merging the epoch's rows into canonical order per (sensor, group)
*stream* by ``searchsorted``.  History normalization
(:func:`repro.runtime.history.observe_block`) is a cumulative minimum
per stream, so a late row moves only the running standards after it in
its own stream, and only until they meet one at most its own: the replay
observes the new rows and the stored rows they moved, found by bisection
over the standard each position of the order holds.  The (window, rank)
cells that gained rows, or hold a row whose perf changed bitwise, are
the epoch's dirty cells; only their matrix cells and per-(sensor, window,
rank) mean durations are recomputed, over the same values in the same
canonical order the reference averages (:func:`_segment_means`).  The
differential hypothesis suite in ``tests/runtime/test_server_columnar.py``
pins the bit-identity under arbitrary permutation, arrival form,
redelivery, late rows and interleaved queries.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, groupby, pairwise

import numpy as np

from repro.runtime.history import normalized, observe_block
from repro.runtime.records import (
    CODE_SENSOR_TYPE, SliceSummary, SummaryColumns, SummaryView, duration_error, rank_error,
)
from repro.sensors.model import SensorType

#: store column names and dtypes: ``stream`` is the row's interned
#: (sensor, group) pair and ``cell`` its matrix cell ``window * n_ranks +
#: rank``, precomputed at ingest so group-bys never touch floating-point
#: division
_COLUMNS = (
    ("stream", np.int64),
    ("cell", np.int64),
    ("slice", np.int64),
    ("duration", np.float64),
    ("stype", np.int8),
)

#: what ``settle`` takes from each staged row, in arrival order
_STAGED = (
    ("rank", np.int64),
    ("sensor", np.int64),
    ("group", np.int64),
    ("slice", np.int64),
    ("duration", np.float64),
    ("stype", np.int8),
    ("window", np.int64),
    ("t_start", np.float64),
)


def _segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment ``np.mean`` over contiguous runs of ``values``.

    ``bounds`` delimits the segments (``bounds[i]:bounds[i+1]``).  Means
    are taken row-wise over 2-D gathers of equal-length segments, which
    applies NumPy's pairwise summation to each contiguous row — the same
    reduction ``np.mean`` performs on each segment individually, so the
    result is bit-identical to the per-segment loop without a Python-level
    call per segment.  (``np.add.reduceat`` would sum sequentially and
    drift in the last bits.)
    """
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    means = np.empty(len(starts), np.float64)
    for length in np.unique(lengths).tolist():
        mask = lengths == length
        idx = starts[mask][:, None] + np.arange(length, dtype=np.int64)
        means[mask] = values[idx].mean(axis=1)
    return means


def _grouped_means(
    group: np.ndarray, values: np.ndarray, within: np.ndarray, n_within: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct ``group`` keys and each group's mean of
    ``values``, averaged in ``within`` order (``0..n_within-1``, distinct
    inside a group, so one unstable sort of the combined key orders all)."""
    order = np.argsort(group * n_within + within)
    group = group[order]
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    return group[starts], _segment_means(values[order], np.append(starts, len(group)))


def _merge(old: np.ndarray, new: np.ndarray, landed: np.ndarray) -> np.ndarray:
    """``new`` at the ``landed`` positions, ``old`` in order around them."""
    merged = np.empty(len(landed), old.dtype)
    merged[landed] = new
    merged[~landed] = old
    return merged


class ColumnarStore:
    """Append-only columnar store of slice summaries plus replay state.

    The owner (:class:`~repro.runtime.server.AnalysisServer`) drives the
    lifecycle: ``ingest_*`` stages a batch, :meth:`settle` folds the
    staged batches into the per-stream canonical order and says how many
    rows were identity duplicates, :meth:`replay` observes the new rows
    and the stored rows whose standard they moved and refreshes the dirty
    cells (returning what kind of epoch it was, for observability).
    Everything else answers about the settled rows — :meth:`max_window`,
    :meth:`last_seen` and :meth:`sensor_types` are kept current by
    ``settle`` — and the query kernels (:meth:`matrix`,
    :meth:`inter_columns`) read the caches :meth:`replay` keeps.
    """

    def __init__(self, window_us: float, n_ranks: int) -> None:
        self.window_us = window_us
        self.n_ranks = n_ranks
        #: exact-size columns, one row per stored summary: each epoch's new
        #: rows are appended by ``settle``, sorted by (stream, slice, rank)
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype) for name, dtype in _COLUMNS
        }
        #: per row: normalized performance, filled by replay
        self._perf = np.empty(0, np.float64)
        #: batches admitted since the last read, in arrival order and in
        #: whatever form they came (row sequences, views, columns)
        self._staged: list = []
        #: interned dynamic-rule group strings; code 0 is ""
        self._group_codes: dict[str, int] = {"": 0}
        self._group_strs: list[str] = [""]
        self._group_rank: np.ndarray | None = None
        #: interned (sensor id, group code) streams, ids in first-seen
        #: (and so insertion) order
        self._streams: dict[tuple[int, int], int] = {}
        self._stream_ranks_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: row indices ordered by (stream id, slice, rank) — canonical
        #: order within each stream — with each row's ``slice * n_ranks +
        #: rank`` alongside and stream ``s`` at ``_bounds[s]:_bounds[s+1]``
        self._order = np.empty(0, np.int64)
        self._okey = np.empty(0, np.int64)
        self._bounds = np.zeros(1, np.int64)
        #: per position of the order: the running standard after the last
        #: replayed row at or before it in its stream (``inf`` before the
        #: first), so it never rises along a stream
        self._held = np.empty(0, np.float64)
        #: rows below this index have been replayed
        self._replayed = 0
        #: answers kept current by ``settle``; the lowest window (0 or
        #: below) bounds the cell codes from below
        self._max_window = 0
        self._min_window = 0
        self._types: dict[int, int] = {}
        self._latest = np.full(n_ranks, -np.inf)
        self._seen = np.zeros(n_ranks, bool)
        #: query caches, current for every replayed row: mean normalized
        #: perf per (type code, rank, window) cell, and mean duration per
        #: (sensor, window, rank) sorted by that key
        self._cells = np.full((len(CODE_SENSOR_TYPE), n_ranks, 0), np.nan)
        self._inter = (
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.float64),
        )

    def __len__(self) -> int:
        return len(self._perf)

    # -- interning ---------------------------------------------------------

    def _intern(self, group: str) -> int:
        code = self._group_codes.get(group)
        if code is None:
            code = len(self._group_strs)
            self._group_codes[group] = code
            self._group_strs.append(group)
            self._group_rank = None
            self._stream_ranks_cache = None
        return code

    def _group_sort_ranks(self) -> np.ndarray:
        """code -> rank of the group string in lexicographic string order.

        Canonical order tiebreaks on the group *string*; interned codes
        are assigned in first-seen order, so sorting by code would diverge
        from the reference.
        """
        if self._group_rank is None:
            order = sorted(range(len(self._group_strs)), key=self._group_strs.__getitem__)
            ranks = np.empty(len(order), np.int64)
            ranks[np.asarray(order)] = np.arange(len(order))
            self._group_rank = ranks
        return self._group_rank

    def _stream_ids(self, sensor: np.ndarray, group: np.ndarray) -> np.ndarray:
        """Per row, the id of its (sensor, group code) stream."""
        sensors, sensor_idx = np.unique(sensor, return_inverse=True)
        n_groups = len(self._group_strs)
        pairs, inverse = np.unique(sensor_idx * n_groups + group, return_inverse=True)
        ids = []
        for pair in pairs.tolist():
            key = (int(sensors[pair // n_groups]), pair % n_groups)
            sid = self._streams.get(key)
            if sid is None:
                sid = self._streams[key] = len(self._streams)
                self._stream_ranks_cache = None
            ids.append(sid)
        return np.array(ids, np.int64)[inverse]

    def _stream_ranks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per stream id: its rank in (sensor, group string) order and its
        sensor's ordinal among the distinct sensors; plus those sensors,
        ascending."""
        if self._stream_ranks_cache is None:
            pairs = np.array(list(self._streams), np.int64).reshape(-1, 2)
            sensor, group = pairs[:, 0], pairs[:, 1]
            order = np.lexsort((self._group_sort_ranks()[group], sensor))
            canon = np.empty(len(order), np.int64)
            canon[order] = np.arange(len(order))
            sensors = np.unique(sensor)
            self._stream_ranks_cache = (canon, np.searchsorted(sensors, sensor), sensors)
        return self._stream_ranks_cache

    # -- ingest ------------------------------------------------------------

    def ingest_summaries(self, batch: Sequence[SliceSummary] | SummaryColumns) -> None:
        """Stage a batch — a row list, a detector's
        :class:`~repro.runtime.records.SummaryView` or decoded columns —
        held by reference until :meth:`settle`."""
        self._staged.append(batch)

    def _staged_columns(self) -> Iterator[SummaryColumns]:
        """The staged batches as columns, in arrival order: consecutive
        views of one log share a gather, consecutive row sequences one
        conversion."""
        for form, run in groupby(
            self._staged, key=lambda b: b.log if type(b) is SummaryView else type(b)
        ):
            if form is SummaryColumns:
                yield from run
            elif isinstance(form, type):
                yield SummaryColumns.from_rows(chain.from_iterable(run))
            else:
                yield SummaryView.gather(list(run))

    def _take_staged(self) -> dict[str, np.ndarray]:
        """Every staged row, store-coded, in arrival order (``_STAGED``
        columns).  A row naming a rank outside the job, or else one holding
        a NaN mean duration, raises before anything is taken, and the
        staged batches stay staged, so every later read raises too."""
        blocks = []  # per batch of columns: its arrays in ``_STAGED`` order
        for cols in self._staged_columns():
            if not len(cols):
                continue
            bad = cols.rank[(cols.rank < 0) | (cols.rank >= self.n_ranks)]
            if len(bad):
                raise rank_error(int(bad[0]), self.n_ranks)
            # batch code -> store code; a code missing from the table is ""
            remap = np.zeros(max(int(cols.group_code.max()), *cols.group_table, 0) + 1, np.int64)
            for code, group in cols.group_table.items():
                remap[code] = self._intern(group)
            t_start = np.asarray(cols.t_slice_start, np.float64)
            blocks.append(
                (cols.rank, cols.sensor_id, remap[cols.group_code], cols.slice_index,
                 cols.mean_duration, cols.sensor_type_code,
                 np.floor_divide(t_start, self.window_us), t_start)
            )
        new = {
            name: np.concatenate(parts, dtype=dtype, casting="unsafe")
            for (name, dtype), parts in zip(_STAGED, zip(*blocks))
        }
        nan = np.flatnonzero(np.isnan(new["duration"])) if new else ()
        if len(nan):
            raise duration_error(*(int(new[k][nan[0]]) for k in ("rank", "sensor", "slice")))
        self._staged = []
        return new

    def settle(self) -> int:
        """Fold the staged batches in and drop identity duplicates;
        returns how many this call dropped.

        Every other method reads the settled store, so the owner calls
        this first.  The identity key (rank, sensor, group, slice) is the
        stream plus the within-stream key ``slice * n_ranks + rank``.  The
        new rows are sorted by it, stably over arrival order, so a row
        equal to its predecessor is a later arrival of the same identity
        (first arrival wins); one ``searchsorted`` per touched stream then
        finds where each remaining row goes in the stored order and drops
        those that are already stored.  The survivors are appended to the
        columns and merged into the order, each holding the standard of
        the position before it in its stream; :meth:`replay` finds them as
        the rows at or above its replay mark.
        """
        if not self._staged:
            return 0
        new = self._take_staged()
        if not new:
            return 0
        stream = new["stream"] = self._stream_ids(new["sensor"], new["group"])
        new["cell"] = new["window"] * self.n_ranks + new["rank"]
        key = new["slice"] * self.n_ranks + new["rank"]
        arrival = np.lexsort((key, stream))
        stream, key = stream[arrival], key[arrival]
        fresh = np.concatenate(([True], (stream[1:] != stream[:-1]) | (key[1:] != key[:-1])))
        at = self._locate(stream, key, fresh)
        rows = arrival[fresh]
        if len(rows):
            self._append(new, rows, at[fresh], stream[fresh], key[fresh])
        return len(arrival) - len(rows)

    def _locate(self, stream: np.ndarray, key: np.ndarray, fresh: np.ndarray) -> np.ndarray:
        """Where each new row goes in ``_order`` (rows sorted by stream,
        then key); clears ``fresh`` for a row whose identity is stored."""
        at = np.full(len(stream), len(self._order), np.int64)
        bounds = self._bounds.tolist()
        cuts = np.flatnonzero(np.concatenate(([True], stream[1:] != stream[:-1], [True])))
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            sid = int(stream[a])
            if sid >= len(bounds) - 1:
                break  # a stream new this epoch, and every one after it
            lo, hi = bounds[sid], bounds[sid + 1]
            stored = self._okey[lo:hi]
            pos = np.searchsorted(stored, key[a:b])
            inside = pos < hi - lo
            hit = np.zeros(b - a, bool)
            hit[inside] = stored[pos[inside]] == key[a:b][inside]
            fresh[a:b] &= ~hit
            at[a:b] = lo + pos
        return at

    def _append(
        self, new: dict[str, np.ndarray], rows: np.ndarray,
        at: np.ndarray, stream: np.ndarray, key: np.ndarray,
    ) -> None:
        """Append the new rows ``rows`` (sorted by stream, then key) and
        merge them into the order before the positions ``at``."""
        n = len(self)
        for name in self._cols:
            self._cols[name] = np.concatenate((self._cols[name], new[name][rows]))
        self._perf = np.concatenate((self._perf, np.empty(len(rows))))
        # A new row holds the standard of the stored position before it in
        # its stream (a stream new this epoch has none).
        known = stream < len(self._bounds) - 1
        after = known & (at > self._bounds[np.where(known, stream, 0)])
        carried = np.full(len(rows), np.inf)
        carried[after] = self._held[at[after] - 1]
        # ``at`` ascends, so new row i lands at ``at[i] + i`` of the merge.
        landed = np.zeros(n + len(rows), bool)
        landed[at + np.arange(len(rows))] = True
        self._order = _merge(self._order, np.arange(n, n + len(rows)), landed)
        self._okey = _merge(self._okey, key, landed)
        self._held = _merge(self._held, carried, landed)
        counts = np.bincount(stream, minlength=len(self._streams))
        counts[: len(self._bounds) - 1] += np.diff(self._bounds)
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        # The answers read off the rows, as sequential ingest of the
        # stored rows in arrival order would have left them.
        rows = np.sort(rows)
        self._max_window = max(self._max_window, int(new["window"][rows].max()))
        self._min_window = min(self._min_window, int(new["window"][rows].min()))
        np.maximum.at(self._latest, new["rank"][rows], new["t_start"][rows])
        self._seen[new["rank"][rows]] = True
        sensors, last = np.unique(new["sensor"][rows][::-1], return_index=True)
        codes = new["stype"][rows][::-1][last]
        self._types.update(zip(sensors.tolist(), codes.tolist()))

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return self._replayed < len(self)

    def replay(self) -> tuple[str, int] | None:
        """Bring per-row perf and the query caches up to date.

        Returns ``(kind, rows_observed)`` when work was done, ``None`` when
        already current.  The rows observed are the new ones and the
        stored ones whose running standard a new row moved
        (:meth:`_moved`); the epoch is ``"full"`` iff that is every stored
        row, as on the first epoch, which observes every stream whole.
        Then the dirty cells — the (window, rank) cells holding a new row
        or a row whose perf changed bitwise — are recomputed.
        """
        n, start = len(self), self._replayed
        if start == n:
            return None
        if start:
            at, perf, standard = self._moved(start)
        else:
            at = np.arange(n)
            perf, standard = (
                np.concatenate(part)
                for part in zip(*(
                    observe_block(self._cols["duration"][self._order[lo:hi]], None)
                    for lo, hi in pairwise(self._bounds.tolist())
                ))
            )
        rows = self._order[at]
        flipped = (rows < start) & (perf.view(np.int64) != self._perf[rows].view(np.int64))
        self._perf[rows] = perf
        self._held[at] = standard
        self._replayed = n
        self._refresh(np.concatenate((np.arange(start, n), rows[flipped])))
        return ("full" if len(rows) == n else "incremental"), len(rows)

    def _moved(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, perf, standards)`` of the rows a late epoch must
        observe, in order.

        The standard is a cumulative minimum along a stream, so after a
        new row it is ``min(held, m)``: the standard the replayed rows
        hold there and the running minimum ``m`` of the stream's new
        durations.  A new row that lowers the standard to ``v`` moves the
        stored rows after it until the first whose held standard is at
        most ``v`` (found by bisection, as held standards never rise; that
        row keeps its perf); one that does not lower it moves nothing.
        The perf of a moved row is scored against the standard on the
        position before it.  ``min`` then picks what the sequential
        minimum picks, except between ``-0.0`` and ``0.0``, which no
        answer tells apart (the scalar history already picks differently
        there).
        """
        order, bounds, held = self._order, self._bounds, self._held
        duration = self._cols["duration"]
        new_at = np.flatnonzero(order >= start)
        stream = np.searchsorted(bounds, new_at, side="right") - 1
        d = duration[order[new_at]]
        cuts = np.flatnonzero(np.concatenate(([True], stream[1:] != stream[:-1], [True])))
        runs = list(pairwise(cuts.tolist()))
        lo, hi = bounds[stream[cuts[:-1]]], bounds[stream[cuts[:-1]] + 1]
        m = np.concatenate([np.minimum.accumulate(d[a:b]) for a, b in runs])
        v = np.minimum(held[new_at], m)
        end = new_at + 1
        for (a, b), s_lo, s_hi in zip(runs, lo.tolist(), hi.tolist()):
            meet = s_lo + np.searchsorted(-held[s_lo:s_hi], -v[a:b])
            end[a:b] = np.where(v[a:b] < held[new_at[a:b]], meet, end[a:b])
        # Spans [new_at, end) over a stream merge into disjoint runs.
        end = np.maximum.accumulate(end)
        opens = np.concatenate(([True], new_at[1:] >= end[:-1]))
        closes = np.concatenate((opens[1:], [True]))
        first, length = new_at[opens], end[closes] - new_at[opens]
        offset = np.cumsum(length) - length
        at = np.arange(length.sum()) + np.repeat(first - offset, length)
        before = held[at]
        standard = np.minimum(before, m[np.searchsorted(new_at, at, side="right") - 1])
        prev = np.concatenate(([np.inf], standard[:-1]))
        prev[offset] = before[offset]
        perf = normalized(duration[order[at]], prev)
        # The first observation of a stream scores 1.0.
        perf[np.searchsorted(at, lo[new_at[cuts[:-1]] == lo])] = 1.0
        return at, perf, standard

    def _refresh(self, changed: np.ndarray) -> None:
        """Recompute the matrix cells and the inter-process mean durations
        of the cells the ``changed`` rows fall in, from all their rows."""
        cols, n_ranks = self._cols, self.n_ranks
        base = self._min_window * n_ranks
        is_dirty = np.zeros((self._max_window + 1) * n_ranks - base, bool)
        is_dirty[cols["cell"][changed] - base] = True
        dirty = np.flatnonzero(is_dirty) + base
        rows = np.flatnonzero(is_dirty[cols["cell"] - base])
        canon, ordinal, sensors = self._stream_ranks()
        stream = cols["stream"][rows]
        # Within a cell canonical order is (slice, sensor, group string),
        # the stream's canonical rank breaking slice ties; slices are
        # replaced by their ordinals to keep the combined key small.
        slices, slice_at = np.unique(cols["slice"][rows], return_inverse=True)
        n_within = len(slices) * len(canon)
        within = slice_at * len(canon) + canon[stream]
        n_dirty = len(dirty)
        at = np.searchsorted(dirty, cols["cell"][rows])

        width = self._max_window + 1
        if self._cells.shape[2] < width:
            grown = np.full(self._cells.shape[:2] + (width,), np.nan)
            grown[:, :, : self._cells.shape[2]] = self._cells
            self._cells = grown
        window, rank = np.divmod(dirty, n_ranks)
        self._cells[:, rank, window] = np.nan
        cell = cols["stype"][rows].astype(np.int64) * n_dirty + at
        cell, means = _grouped_means(cell, self._perf[rows], within, n_within)
        stype, at_cell = np.divmod(cell, n_dirty)
        self._cells[stype, rank[at_cell], window[at_cell]] = means

        block = ordinal[stream] * n_dirty + at
        block, means = _grouped_means(block, cols["duration"][rows], within, n_within)
        sensor_ord, at_block = np.divmod(block, n_dirty)
        old_sensor, old_window, old_rank, old_mean = self._inter
        keep = ~is_dirty[old_window * n_ranks + old_rank - base]
        sensor = np.concatenate((old_sensor[keep], sensors[sensor_ord]))
        window = np.concatenate((old_window[keep], window[at_block]))
        rank = np.concatenate((old_rank[keep], rank[at_block]))
        mean = np.concatenate((old_mean[keep], means))
        # Both parts are sorted by (sensor, window, rank): a stable sort
        # of the combined key merges the two runs.
        merged = np.argsort(
            np.searchsorted(sensors, sensor) * len(is_dirty) + (window * n_ranks + rank - base),
            kind="stable",
        )
        self._inter = (sensor[merged], window[merged], rank[merged], mean[merged])

    def history_standards(self) -> dict[tuple[int, str], float]:
        """Replayed standard times keyed by (sensor id, group string)."""
        last = self._held[self._bounds[1:] - 1].tolist()
        return {
            (sensor_id, self._group_strs[code]): standard
            for (sensor_id, code), standard in zip(self._streams, last)
        }

    # -- answers kept current by settle (no replay needed) -----------------

    def max_window(self) -> int:
        """Highest matrix window any stored row falls in (0 when empty)."""
        return self._max_window

    def last_seen(self) -> dict[int, float]:
        """rank -> virtual start time of the freshest slice it reported."""
        ranks = np.flatnonzero(self._seen)
        return dict(zip(ranks.tolist(), self._latest[ranks].tolist()))

    def sensor_types(self) -> dict[int, SensorType]:
        """sensor id -> type; the last stored row wins, as sequential
        ingest would have left it."""
        return {sensor: CODE_SENSOR_TYPE[code] for sensor, code in self._types.items()}

    # -- query kernels (read the caches replay() keeps) --------------------

    def matrix(self, stype_code: int, n_ranks: int, n_windows: int) -> np.ndarray:
        """(n_ranks, n_windows) matrix of per-cell mean normalized perf."""
        out = np.full((n_ranks, n_windows), np.nan)
        cells = self._cells[stype_code, :n_ranks, :n_windows]
        out[: cells.shape[0], : cells.shape[1]] = cells
        return out

    def inter_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sensor, window, rank, mean duration)`` columns, one entry per
        (sensor, window, rank) with data, sorted by that key."""
        return self._inter
