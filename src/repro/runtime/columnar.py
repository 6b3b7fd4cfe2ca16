"""Columnar summary store with incremental canonical replay (§5.4–§5.5).

The analysis server's derived state — normalized performance per slice,
per-cell matrix means, inter-process rank comparisons — is a function of
the *canonically ordered* summary store, not of batch arrival order.  The
oracle (:mod:`repro.runtime.reference`) realizes that as a Python dict
keyed by summary identity plus a full re-sort-and-replay after every
ingest; interleaved ingest/query (the
:class:`~repro.runtime.live.LiveReporter` pattern) then degrades
quadratically in run length.

This module is the production store behind the same interface: summaries
live in append-only NumPy columns (amortized-doubling growth, interned
group strings) holding exactly what a query reads, the canonical order is
maintained as a sorted base plus an unsorted tail, and the replay rolls
forward instead of restarting whenever an epoch's new rows all sort after
everything already replayed — the common case for an in-order run.  Every kernel reproduces the reference semantics
bit-for-bit: the cumulative-min history normalization uses
:func:`repro.runtime.history.observe_block`, cell means are taken with
``np.mean`` over the same values in the same canonical order, and the
inter-process math is the identical NumPy expression the reference
evaluates per (sensor, window).  The differential hypothesis suite in
``tests/runtime/test_server_columnar.py`` pins the bit-identity under
arbitrary permutation, redelivery and interleaved queries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.runtime.history import observe_block
from repro.runtime.records import CODE_SENSOR_TYPE, SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
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

_INITIAL_CAPACITY = 1024


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
    lifecycle: ``ingest_*`` appends a batch's new rows and returns how
    many were identity duplicates, :meth:`replay` brings the canonical
    order and per-row normalized performance up to date (returning what
    kind of epoch it was, for observability), and the query kernels
    (:meth:`matrix`, :meth:`inter_blocks`) assume :meth:`replay` ran
    first.  :meth:`max_window`, :meth:`last_seen` and :meth:`sensor_types`
    are computed from the columns when asked; ingest keeps no table
    beside them.
    """

    def __init__(self, window_us: float) -> None:
        self.window_us = window_us
        self.n = 0
        self._cap = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype) for name, dtype in _COLUMNS
        }
        #: normalized performance per row, filled by replay
        self._perf = np.empty(0, np.float64)
        #: identity dedup: (rank, sensor, group code, slice)
        self._keys: set[tuple[int, int, int, int]] = set()
        #: interned dynamic-rule group strings; code 0 is ""
        self._group_codes: dict[str, int] = {"": 0}
        self._group_strs: list[str] = [""]
        self._group_rank: np.ndarray | None = None
        #: canonical order (row indices) of replayed rows
        self._order = np.empty(0, np.int64)
        self._replayed = 0
        #: running standard times keyed by (sensor id, group code)
        self._standards: dict[tuple[int, int], float] = {}
        #: canonical sort key of the last replayed row
        self._last_key: tuple[int, int, int, str] | None = None

    def __len__(self) -> int:
        return self.n

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

    def _grow(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = max(_INITIAL_CAPACITY, self._cap)
        while cap < need:
            cap *= 2
        for name, dtype in _COLUMNS:
            grown = np.empty(cap, dtype)
            grown[: self.n] = self._cols[name][: self.n]
            self._cols[name] = grown
        perf = np.empty(cap, np.float64)
        perf[: self.n] = self._perf[: self.n]
        self._perf = perf
        self._cap = cap

    def _append(self, staged: dict[str, np.ndarray]) -> None:
        k = len(staged["rank"])
        need = self.n + k
        self._grow(need)
        for name, _ in _COLUMNS:
            self._cols[name][self.n : need] = staged[name]
        self.n = need

    def ingest_summaries(self, summaries: list[SliceSummary]) -> int:
        """Append deduplicated object-form summaries; returns the number
        of rows dropped as identity duplicates."""
        keys = self._keys
        ranks: list[int] = []
        sensors: list[int] = []
        groups: list[int] = []
        slices: list[int] = []
        t_starts: list[float] = []
        durations: list[float] = []
        stypes: list[int] = []
        duplicates = 0
        for s in summaries:
            code = self._intern(s.group)
            key = (s.rank, s.sensor_id, code, s.slice_index)
            if key in keys:
                duplicates += 1
                continue
            keys.add(key)
            ranks.append(s.rank)
            sensors.append(s.sensor_id)
            groups.append(code)
            slices.append(s.slice_index)
            t_starts.append(s.t_slice_start)
            durations.append(s.mean_duration)
            stypes.append(SENSOR_TYPE_CODE[s.sensor_type])
        if not ranks:
            return duplicates
        t_arr = np.asarray(t_starts, np.float64)
        window = np.floor_divide(t_arr, self.window_us).astype(np.int64)
        self._append(
            {
                "rank": np.asarray(ranks, np.int64),
                "sensor": np.asarray(sensors, np.int64),
                "group": np.asarray(groups, np.int64),
                "slice": np.asarray(slices, np.int64),
                "t_start": t_arr,
                "duration": np.asarray(durations, np.float64),
                "stype": np.asarray(stypes, np.int8),
                "window": window,
            }
        )
        return duplicates

    def ingest_columns(self, cols: SummaryColumns) -> int:
        """Append a zero-copy decoded batch (column arrays, one rank);
        returns the number of rows dropped as identity duplicates."""
        n = len(cols)
        if n == 0:
            return 0
        local_codes, inverse = np.unique(cols.group_code, return_inverse=True)
        remap = np.empty(len(local_codes), np.int64)
        for i, local in enumerate(local_codes.tolist()):
            remap[i] = self._intern(cols.group_table.get(local, ""))
        store_codes = remap[inverse]
        sensors = cols.sensor_id.astype(np.int64)
        slices = cols.slice_index.astype(np.int64)
        rank = cols.rank
        keys = self._keys
        keep = np.ones(n, bool)
        duplicates = 0
        for i, (sid, code, sl) in enumerate(
            zip(sensors.tolist(), store_codes.tolist(), slices.tolist())
        ):
            key = (rank, sid, code, sl)
            if key in keys:
                keep[i] = False
                duplicates += 1
            else:
                keys.add(key)
        if not keep.any():
            return duplicates
        if duplicates:
            sensors = sensors[keep]
            slices = slices[keep]
            store_codes = store_codes[keep]
        t_arr = cols.t_slice_start[keep] if duplicates else cols.t_slice_start
        stype_codes = cols.sensor_type_code[keep] if duplicates else cols.sensor_type_code
        window = np.floor_divide(np.asarray(t_arr, np.float64), self.window_us).astype(np.int64)
        k = len(sensors)
        self._append(
            {
                "rank": np.full(k, rank, np.int64),
                "sensor": sensors,
                "group": store_codes,
                "slice": slices,
                "t_start": np.asarray(t_arr, np.float64),
                "duration": (cols.mean_duration[keep] if duplicates else cols.mean_duration).astype(np.float64),
                "stype": np.asarray(stype_codes, np.int8),
                "window": window,
            }
        )
        return duplicates

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return self._replayed < self.n

    def _canonical_order(self, idx: np.ndarray) -> np.ndarray:
        """Sort row indices by (slice, rank, sensor, group string)."""
        grank = self._group_sort_ranks()
        cols = self._cols
        return idx[
            np.lexsort(
                (
                    grank[cols["group"][idx]],
                    cols["sensor"][idx],
                    cols["rank"][idx],
                    cols["slice"][idx],
                )
            )
        ]

    def _key_of(self, row: int) -> tuple[int, int, int, str]:
        cols = self._cols
        return (
            int(cols["slice"][row]),
            int(cols["rank"][row]),
            int(cols["sensor"][row]),
            self._group_strs[int(cols["group"][row])],
        )

    def replay(self) -> tuple[str, int] | None:
        """Bring the canonical order and per-row perf up to date.

        Returns ``("incremental" | "full", rows_replayed)`` when work was
        done, ``None`` when already current.  An epoch is incremental iff
        every new row sorts canonically after the last replayed row —
        then the sorted base is extended and the history state rolls
        forward; otherwise the whole store is re-sorted and re-observed.
        """
        n = self.n
        if self._replayed == n:
            return None
        tail = np.arange(self._replayed, n, dtype=np.int64)
        tail_order = self._canonical_order(tail)
        if (
            self._replayed
            and self._last_key is not None
            and self._key_of(int(tail_order[0])) > self._last_key
        ):
            self._observe_rows(tail_order)
            self._order = np.concatenate((self._order, tail_order))
            kind, rows = "incremental", n - self._replayed
        else:
            self._standards = {}
            self._order = self._canonical_order(np.arange(n, dtype=np.int64))
            self._observe_rows(self._order)
            kind, rows = "full", n
        self._last_key = self._key_of(int(self._order[-1]))
        self._replayed = n
        return kind, rows

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
        if not self.n:
            return 0
        return max(0, int(self._cols["window"][: self.n].max()))

    def last_seen(self) -> dict[int, float]:
        """rank -> virtual start time of the freshest slice it reported."""
        ranks, inverse = np.unique(self._cols["rank"][: self.n], return_inverse=True)
        latest = np.full(len(ranks), -np.inf)
        np.maximum.at(latest, inverse, self._cols["t_start"][: self.n])
        return dict(zip(ranks.tolist(), latest.tolist()))

    def sensor_types(self) -> dict[int, SensorType]:
        """sensor id -> type; the last stored row wins, as sequential
        ingest would have left it."""
        n = self.n
        sensors, first = np.unique(self._cols["sensor"][:n][::-1], return_index=True)
        codes = self._cols["stype"][:n][(n - 1) - first]
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
