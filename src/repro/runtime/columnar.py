"""Columnar summary store with incremental canonical replay (§5.4–§5.5).

The analysis server's derived state — normalized performance per slice,
per-cell matrix means, inter-process rank comparisons — is a function of
the *canonically ordered* summary store, not of batch arrival order.  The
oracle (:mod:`repro.runtime.reference`) realizes that as a Python dict
keyed by summary identity plus a full re-sort-and-replay after every
ingest; interleaved ingest/query (the
:class:`~repro.runtime.live.LiveReporter` pattern) then degrades
quadratically in run length.

This module is the production store behind the same interface.  Ingest
only *stages* a batch, in whatever form it came; the first read of an
epoch settles the store: one gather per column appends the staged rows to
exact-size NumPy columns (interned group strings, exactly what a query
reads), a stable canonical sort of the unreplayed tail exposes identity
duplicates as rows equal to their predecessor, and the replay rolls
forward instead of restarting whenever the epoch's new rows all sort after
everything already replayed — the common case for an in-order run.  Every
kernel reproduces the reference semantics bit-for-bit: the cumulative-min
history normalization uses :func:`repro.runtime.history.observe_block`,
cell means are taken with ``np.mean`` over the same values in the same
canonical order, and the inter-process math is the identical NumPy
expression the reference evaluates per (sensor, window).  The differential
hypothesis suite in ``tests/runtime/test_server_columnar.py`` pins the
bit-identity under arbitrary permutation, arrival form, redelivery and
interleaved queries.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, groupby

import numpy as np

from repro.runtime.history import observe_block
from repro.runtime.records import CODE_SENSOR_TYPE, SliceSummary, SummaryColumns, SummaryView
from repro.sensors.model import SensorType

#: store column names and dtypes; ``window`` is precomputed at ingest so
#: matrix group-bys never touch floating-point division
_COLUMNS = (
    ("rank", np.int64),
    ("sensor", np.int64),
    ("group", np.int64),
    ("slice", np.int64),
    ("t_start", np.float64),
    ("duration", np.float64),
    ("stype", np.int8),
    ("window", np.int64),
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


class ColumnarStore:
    """Append-only columnar store of slice summaries plus replay state.

    The owner (:class:`~repro.runtime.server.AnalysisServer`) drives the
    lifecycle: ``ingest_*`` stages a batch, :meth:`settle` folds the
    staged batches in and says how many rows were identity duplicates,
    :meth:`replay` brings the canonical order and per-row normalized
    performance up to date (returning what kind of epoch it was, for
    observability).  Everything else answers about the settled rows —
    :meth:`max_window`, :meth:`last_seen` and :meth:`sensor_types` from
    the columns, with no table beside them — and the query kernels
    (:meth:`matrix`, :meth:`inter_blocks`) assume :meth:`replay` ran.
    """

    def __init__(self, window_us: float) -> None:
        self.window_us = window_us
        #: exact-size columns: rows are appended once per epoch, by ``settle``
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype) for name, dtype in _COLUMNS
        }
        #: normalized performance per row, filled by replay
        self._perf = np.empty(0, np.float64)
        #: batches admitted since the last read, in arrival order and in
        #: whatever form they came (row sequences, views, columns)
        self._staged: list = []
        #: interned dynamic-rule group strings; code 0 is ""
        self._group_codes: dict[str, int] = {"": 0}
        self._group_strs: list[str] = [""]
        self._group_rank: np.ndarray | None = None
        #: canonical order (row indices) of replayed rows
        self._order = np.empty(0, np.int64)
        self._replayed = 0
        #: what ``settle`` sorted for the next replay: (kind, row indices)
        self._epoch: tuple[str, np.ndarray] | None = None
        #: running standard times keyed by (sensor id, group code)
        self._standards: dict[tuple[int, int], float] = {}
        #: canonical sort key of the last replayed row
        self._last_key: tuple[int, int, int, str] | None = None

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
        return code

    def _group_sort_ranks(self) -> np.ndarray:
        """code -> rank of the group string in lexicographic string order.

        Canonical order tiebreaks on the group *string*; interned codes
        are assigned in first-seen order, so sorting by code would diverge
        from the reference.  Interning a new string keeps the relative
        order of existing strings, so previously replayed prefixes stay
        canonically sorted.
        """
        if self._group_rank is None:
            order = sorted(range(len(self._group_strs)), key=self._group_strs.__getitem__)
            ranks = np.empty(len(order), np.int64)
            ranks[np.asarray(order)] = np.arange(len(order))
            self._group_rank = ranks
        return self._group_rank

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
        staged, self._staged = self._staged, []
        for form, run in groupby(
            staged, key=lambda b: b.log if isinstance(b, SummaryView) else type(b)
        ):
            if form is SummaryColumns:
                yield from run
            elif isinstance(form, type):
                yield SummaryColumns.from_rows(chain.from_iterable(run))
            else:
                yield SummaryView.gather(list(run))

    def _append_staged(self) -> None:
        """Append every staged row, store-coded, in arrival order."""
        blocks = []  # per batch of columns: its arrays in ``_COLUMNS`` order
        for cols in self._staged_columns():
            if not len(cols):
                continue
            local_codes, inverse = np.unique(cols.group_code, return_inverse=True)
            remap = np.array(
                [self._intern(cols.group_table.get(c, "")) for c in local_codes.tolist()]
            )
            t_start = np.asarray(cols.t_slice_start, np.float64)
            window = np.floor_divide(t_start, self.window_us)
            blocks.append(
                (cols.rank, cols.sensor_id, remap[inverse], cols.slice_index, t_start,
                 cols.mean_duration, cols.sensor_type_code, window)
            )
        for (name, dtype), parts in zip(_COLUMNS, zip(*blocks)):
            self._cols[name] = np.concatenate(
                (self._cols[name], *parts), dtype=dtype, casting="unsafe"
            )
        added = len(self._cols["rank"]) - len(self._perf)
        self._perf = np.concatenate((self._perf, np.empty(added)))

    def settle(self) -> int:
        """Fold the staged batches into the columns and drop identity
        duplicates; returns how many this call dropped.

        Every other method reads the settled store, so the owner calls
        this first.  The identity key (rank, sensor, group, slice) is the
        canonical sort key and the sort is stable over arrival order, so a
        row equal to its predecessor in canonical order is a later arrival
        of the same identity (first arrival wins).  Such rows are always
        in the unreplayed tail; they are compacted away here, and
        :meth:`replay` gets the epoch's rows already in order.
        """
        if not self._staged:
            return 0
        self._append_staged()
        start, n = self._replayed, len(self)
        if start == n:
            return 0
        order = self._canonical_order(np.arange(start, n, dtype=np.int64))
        # A tail that sorts after everything replayed cannot repeat a
        # replayed row; otherwise the whole store is put in order.
        ahead = start and self._key_of(int(order[0])) > self._last_key
        if not ahead:
            order = self._canonical_order(np.arange(n, dtype=np.int64))
        cols = self._cols
        repeat = np.ones(len(order) - 1, bool)
        for name in ("slice", "rank", "sensor", "group"):
            key = cols[name][order]
            repeat &= key[1:] == key[:-1]
        if repeat.any():
            keep = np.ones(n, bool)
            keep[order[1:][repeat]] = False
            for name in cols:
                cols[name] = cols[name][keep]
            self._perf = self._perf[keep]
            order = (np.cumsum(keep) - 1)[order[np.concatenate(([True], ~repeat))]]
        fresh = order[order >= start]
        if start and len(fresh) and self._key_of(int(fresh[0])) > self._last_key:
            self._epoch = ("incremental", fresh)
        else:
            self._epoch = ("full", order)
        return n - len(self)

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return self._replayed < len(self)

    def _canonical_order(self, idx: np.ndarray) -> np.ndarray:
        """Stable sort of row indices by (slice, rank, sensor, group string)."""
        cols = self._cols
        group = self._group_sort_ranks()[cols["group"][idx]]
        return idx[np.lexsort((group, cols["sensor"][idx], cols["rank"][idx], cols["slice"][idx]))]

    def _key_of(self, row: int) -> tuple[int, int, int, str]:
        index, rank, sensor, group = (
            int(self._cols[name][row]) for name in ("slice", "rank", "sensor", "group")
        )
        return (index, rank, sensor, self._group_strs[group])

    def replay(self) -> tuple[str, int] | None:
        """Bring the canonical order and per-row perf up to date.

        Returns ``("incremental" | "full", rows_replayed)`` when work was
        done, ``None`` when already current.  An epoch is incremental iff
        every new row sorts canonically after the last replayed row —
        then the sorted base is extended and the history state rolls
        forward; otherwise the whole store is re-observed in the order
        :meth:`settle` sorted.
        """
        n = len(self)
        if self._replayed == n:
            return None
        kind, order = self._epoch
        if kind == "incremental":
            self._order = np.concatenate((self._order, order))
        else:
            self._standards = {}
            self._order = order
        self._observe_rows(order)
        self._last_key = self._key_of(int(self._order[-1]))
        self._replayed = n
        return kind, len(order)

    def _observe_rows(self, order: np.ndarray) -> None:
        """Vectorized history normalization of ``order``'s rows in place.

        Rows are grouped by (sensor, group) with a stable sort, so each
        key's durations stay in canonical order; the per-key cumulative
        minimum then continues from the carried-in standard.
        """
        cols = self._cols
        sens = cols["sensor"][order]
        grp = cols["group"][order]
        dur = cols["duration"][order]
        n_groups = len(self._group_strs)
        uniq_sens, inverse = np.unique(sens, return_inverse=True)
        pair = inverse.astype(np.int64) * n_groups + grp
        sidx = np.argsort(pair, kind="stable")
        pair_s = pair[sidx]
        dur_s = dur[sidx]
        starts = np.flatnonzero(np.concatenate(([True], pair_s[1:] != pair_s[:-1])))
        bounds = np.append(starts, len(pair_s))
        perf_s = np.empty(len(pair_s), np.float64)
        standards = self._standards
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            pid = int(pair_s[a])
            key = (int(uniq_sens[pid // n_groups]), pid % n_groups)
            perf_seg, new_standard = observe_block(dur_s[a:b], standards.get(key))
            standards[key] = new_standard
            perf_s[a:b] = perf_seg
        self._perf[order[sidx]] = perf_s

    def history_standards(self) -> dict[tuple[int, str], float]:
        """Replayed standard times keyed by (sensor id, group string)."""
        return {
            (sensor_id, self._group_strs[code]): standard
            for (sensor_id, code), standard in self._standards.items()
        }

    # -- answers read off the columns (no replay needed) -------------------

    def max_window(self) -> int:
        """Highest matrix window any stored row falls in (0 when empty)."""
        return max(0, int(self._cols["window"].max())) if len(self) else 0

    def last_seen(self) -> dict[int, float]:
        """rank -> virtual start time of the freshest slice it reported."""
        ranks, inverse = np.unique(self._cols["rank"], return_inverse=True)
        latest = np.full(len(ranks), -np.inf)
        np.maximum.at(latest, inverse, self._cols["t_start"])
        return dict(zip(ranks.tolist(), latest.tolist()))

    def sensor_types(self) -> dict[int, SensorType]:
        """sensor id -> type; the last stored row wins, as sequential
        ingest would have left it."""
        sensors, first = np.unique(self._cols["sensor"][::-1], return_index=True)
        codes = self._cols["stype"][(len(self) - 1) - first]
        return {s: CODE_SENSOR_TYPE[c] for s, c in zip(sensors.tolist(), codes.tolist())}

    # -- query kernels (assume replay() ran) -------------------------------

    def matrix(self, stype_code: int, n_ranks: int, n_windows: int) -> np.ndarray:
        """(n_ranks, n_windows) matrix of per-cell mean normalized perf."""
        out = np.full((n_ranks, n_windows), np.nan)
        order = self._order
        if not len(order):
            return out
        cols = self._cols
        sel = order[cols["stype"][order] == stype_code]
        if not len(sel):
            return out
        cell = cols["rank"][sel] * np.int64(n_windows) + cols["window"][sel]
        sidx = np.argsort(cell, kind="stable")
        cell_s = cell[sidx]
        perf_s = self._perf[sel][sidx]
        starts = np.flatnonzero(np.concatenate(([True], cell_s[1:] != cell_s[:-1])))
        bounds = np.append(starts, len(cell_s))
        flat = out.reshape(-1)
        # Per-cell means over the contiguous segments: same values in the
        # same canonical order as the reference's per-cell lists.
        flat[cell_s[starts]] = _segment_means(perf_s, bounds)
        return out

    def inter_blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (sensor, window, ranks, per-rank mean durations) blocks.

        Blocks ascend by (sensor, window) and ranks ascend within each
        block — the iteration order of the reference's
        ``sorted(per_sensor.items())`` loop.
        """
        order = self._order
        if not len(order):
            return
        cols = self._cols
        sens = cols["sensor"][order]
        win = cols["window"][order]
        rank = cols["rank"][order]
        dur = cols["duration"][order]
        sidx = np.lexsort((rank, win, sens))
        sens_s = sens[sidx]
        win_s = win[sidx]
        rank_s = rank[sidx]
        dur_s = dur[sidx]
        change = (
            (sens_s[1:] != sens_s[:-1])
            | (win_s[1:] != win_s[:-1])
            | (rank_s[1:] != rank_s[:-1])
        )
        starts = np.flatnonzero(np.concatenate(([True], change)))
        bounds = np.append(starts, len(sens_s))
        means = _segment_means(dur_s, bounds)
        seg_sens = sens_s[starts]
        seg_win = win_s[starts]
        seg_rank = rank_s[starts]
        block_change = (seg_sens[1:] != seg_sens[:-1]) | (seg_win[1:] != seg_win[:-1])
        block_starts = np.flatnonzero(np.concatenate(([True], block_change)))
        block_bounds = np.append(block_starts, len(seg_sens))
        for a, b in zip(block_starts.tolist(), block_bounds[1:].tolist()):
            yield int(seg_sens[a]), int(seg_win[a]), seg_rank[a:b], means[a:b]
