"""Dogfooding: hunt the repo's own ``BENCH_*.json`` files for regressions.

Every benchmark in this repo writes a JSON payload (``BENCH_interp.json``,
``BENCH_server.json``, ...) whose numeric leaves are exactly the numbers
the CI gates care about — speedups, overheads, F-scores, wall seconds.
This module flattens those payloads into metric series and feeds them to
the :class:`~repro.history.hunter.RegressionHunter`, so the regression
hunter hunts the project that built it.

A *trajectory* is an ordered list of snapshots of the same bench file
(e.g. one per CI run, oldest first).  Files are grouped by basename, so::

    repro history scan --bench-dogfood runs/*/BENCH_interp.json

hunts one trajectory per bench, and passing today's single snapshot of
each file is valid — length-1 series are skipped, which is what makes the
current-tree CI scan quiet by construction until history accumulates.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.history.hunter import HistoryScan, RegressionHunter


def flatten_metrics(doc, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON document as dotted/indexed paths.

    Booleans are excluded (they are ``int`` subclasses but gate flags,
    not metrics).
    """
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(doc[key], path))
    elif isinstance(doc, list):
        for index, item in enumerate(doc):
            out.update(flatten_metrics(item, f"{prefix}[{index}]"))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix] = float(doc)
    return out


def load_bench_trajectory(paths) -> dict[str, dict[str, list[float]]]:
    """Group snapshot files by basename into per-metric series.

    Snapshot order within a group is the order given.  Only metrics
    present in *every* snapshot of a group become series — a metric that
    appears or disappears between snapshots cannot be aligned by index.
    """
    groups: dict[str, list[dict[str, float]]] = {}
    for raw in paths:
        path = Path(raw)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read bench payload {path}: {exc}") from exc
        groups.setdefault(path.name, []).append(flatten_metrics(doc))
    trajectories: dict[str, dict[str, list[float]]] = {}
    for name, snapshots in groups.items():
        common = set(snapshots[0])
        for snap in snapshots[1:]:
            common &= set(snap)
        trajectories[name] = {
            metric: [snap[metric] for snap in snapshots] for metric in sorted(common)
        }
    return trajectories


def scan_bench_trajectory(paths, hunter: RegressionHunter | None = None) -> HistoryScan:
    """Hunt every bench-file trajectory in ``paths``; one merged scan."""
    hunter = hunter or RegressionHunter()
    scan = HistoryScan()
    for name, series in sorted(load_bench_trajectory(paths).items()):
        scan.merge(
            hunter.scan_series(
                series,
                fingerprint=name,
                runs_scanned=max((len(v) for v in series.values()), default=0),
            )
        )
    return scan
