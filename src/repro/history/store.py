"""Append-only cross-run history store: one JSONL file per fingerprint.

A :class:`RunStore` persists one :class:`RunRecord` per completed
``run_vsensor`` invocation, keyed by a content-hash *configuration
fingerprint* (built from :func:`repro.pipeline.artifacts.fingerprint`, the
same machinery that keys the compilation artifact cache).  Runs are only
ever compared against runs with a bit-identical configuration — comparing
a 32-rank LULESH trajectory against a 128-rank one would manufacture
change points out of config drift, so the key *is* the config.

Layout: ``<root>/<sha256>.jsonl``, one canonically encoded JSON object per
line (sorted keys, compact separators), sequence numbers assigned on
append.  Canonical encoding is what makes the round-trip property hold:
append → reopen → scan reproduces byte-identical lines, so two stores fed
the same records are byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.pipeline.artifacts import digest, fingerprint

#: bump when the record layout changes incompatibly; readers reject newer
SCHEMA_VERSION = 1


class HistoryStoreError(ReproError):
    """A malformed store file or record."""


@dataclass(frozen=True, slots=True)
class SensorBaseline:
    """Per-run summary statistics of one sensor's normalized performance."""

    sensor_id: int
    sensor_type: str
    median_perf: float
    p95_perf: float
    count: int
    #: fastest slice-average duration observed for the sensor (µs); the
    #: §5.3 standard time this run normalized against
    standard_us: float

    def to_json(self) -> dict:
        return {
            "sensor_id": self.sensor_id,
            "sensor_type": self.sensor_type,
            "median_perf": self.median_perf,
            "p95_perf": self.p95_perf,
            "count": self.count,
            "standard_us": self.standard_us,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SensorBaseline":
        return cls(
            sensor_id=int(doc["sensor_id"]),
            sensor_type=str(doc["sensor_type"]),
            median_perf=float(doc["median_perf"]),
            p95_perf=float(doc["p95_perf"]),
            count=int(doc["count"]),
            standard_us=float(doc["standard_us"]),
        )


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One run's sensor baselines plus run-level health metrics."""

    fingerprint: str
    #: position in the fingerprint's trajectory; assigned by the store
    seq: int = -1
    label: str = ""
    workload: str = ""
    total_time_us: float = 0.0
    intra_events: int = 0
    inter_events: int = 0
    coverage_confidence: float = 1.0
    sampling_coverage: float = 1.0
    #: detection quality against known ground truth, when the caller has
    #: one (injection studies, CI quality gates); ``None`` otherwise
    f_score: float | None = None
    sensors: tuple[SensorBaseline, ...] = ()

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "seq": self.seq,
            "label": self.label,
            "workload": self.workload,
            "total_time_us": self.total_time_us,
            "intra_events": self.intra_events,
            "inter_events": self.inter_events,
            "coverage_confidence": self.coverage_confidence,
            "sampling_coverage": self.sampling_coverage,
            "f_score": self.f_score,
            "sensors": [s.to_json() for s in self.sensors],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RunRecord":
        if int(doc.get("schema", 0)) > SCHEMA_VERSION:
            raise HistoryStoreError(
                f"record schema {doc.get('schema')} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the reader"
            )
        f_score = doc.get("f_score")
        return cls(
            fingerprint=str(doc["fingerprint"]),
            seq=int(doc["seq"]),
            label=str(doc.get("label", "")),
            workload=str(doc.get("workload", "")),
            total_time_us=float(doc["total_time_us"]),
            intra_events=int(doc["intra_events"]),
            inter_events=int(doc["inter_events"]),
            coverage_confidence=float(doc["coverage_confidence"]),
            sampling_coverage=float(doc["sampling_coverage"]),
            f_score=None if f_score is None else float(f_score),
            sensors=tuple(SensorBaseline.from_json(s) for s in doc["sensors"]),
        )


def encode_record(record: RunRecord) -> str:
    """Canonical one-line encoding: sorted keys, compact separators.

    Rejects non-finite floats up front — ``json`` would emit ``NaN``
    (invalid JSON) and a store that cannot be re-read is worse than a
    failed append.
    """
    doc = record.to_json()
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text


def decode_record(line: str) -> RunRecord:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryStoreError(f"corrupt history line: {exc}") from exc
    return RunRecord.from_json(doc)


def run_fingerprint(source: str, machine, detector=None, **extra) -> str:
    """The store key for one run configuration.

    Content-hashes the program text, the full machine config (ranks,
    node layout, noise model, seed), the detector config, and any extra
    keyword dimensions the caller wants runs partitioned by (max_depth,
    governor config, rule name, ...) through the pipeline's
    :func:`~repro.pipeline.artifacts.fingerprint`.  Pass what changes
    results: :func:`~repro.api.run_vsensor` leaves the interpreter tier
    out because tiers are bit-identical by contract.
    """
    from repro.runtime.detector import DetectorConfig

    return digest(
        "history-run",
        source,
        fingerprint(machine),
        fingerprint(detector if detector is not None else DetectorConfig()),
        fingerprint(dict(extra)),
    )


def record_from_run(run, fingerprint_key: str, label: str = "", workload: str = "") -> RunRecord:
    """Summarize a finished :class:`~repro.api.VSensorRun` into a record.

    Per-sensor normalized performance is recomputed post-hoc from each
    rank detector's slice summaries against that rank's *final* standard
    times — a deterministic function of the run, unlike the online stream
    whose early records saw provisional standards.
    """
    per_sensor: dict[int, list[float]] = {}
    standards: dict[int, float] = {}
    types: dict[int, str] = {}
    for info in run.static.program.sensors.values():
        types[info.sensor_id] = info.sensor_type.name
    for detector in run.runtime.detectors.values():
        for summary in detector.summaries:
            standard = detector.history.standard_time(summary.sensor_id, summary.group)
            if standard is None:
                continue
            if summary.mean_duration <= 0.0 or summary.mean_duration <= standard:
                perf = 1.0
            else:
                perf = standard / summary.mean_duration
            per_sensor.setdefault(summary.sensor_id, []).append(perf)
            prev = standards.get(summary.sensor_id)
            if prev is None or standard < prev:
                standards[summary.sensor_id] = standard
    baselines = tuple(
        SensorBaseline(
            sensor_id=sensor_id,
            sensor_type=types.get(sensor_id, "COMPUTATION"),
            median_perf=float(np.median(perfs)),
            p95_perf=float(np.percentile(perfs, 95.0)),
            count=len(perfs),
            standard_us=standards[sensor_id],
        )
        for sensor_id, perfs in sorted(per_sensor.items())
    )
    report = run.report
    return RunRecord(
        fingerprint=fingerprint_key,
        label=label,
        workload=workload,
        total_time_us=float(run.sim.total_time),
        intra_events=0 if report is None else report.intra_events,
        inter_events=0 if report is None else report.inter_events,
        coverage_confidence=1.0 if report is None else float(report.coverage_confidence),
        sampling_coverage=1.0 if report is None else float(report.sampling_coverage),
        sensors=baselines,
    )


class RunStore:
    """Append-only store of run records, one JSONL trajectory per key.

    A final line without its newline is an append that never finished (the
    writer died mid-record): reads ignore it and the next append cuts it
    off first, so the file reads as if that append never started.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: key -> (file size, record count) at the last count or append
        self._counts: dict[str, tuple[int, int]] = {}

    def path_for(self, fingerprint_key: str) -> Path:
        if not fingerprint_key or any(c in fingerprint_key for c in "/\\"):
            raise HistoryStoreError(f"bad fingerprint key {fingerprint_key!r}")
        return self.root / f"{fingerprint_key}.jsonl"

    def fingerprints(self) -> list[str]:
        """Every trajectory key present on disk, sorted."""
        return sorted(path.stem for path in self.root.glob("*.jsonl"))

    def _lines(self, path: Path) -> list[str]:
        """The file's complete, non-blank lines."""
        if not path.exists():
            return []
        with open(path, encoding="utf-8") as fh:
            return [line for line in fh if line.endswith("\n") and line.strip()]

    def count(self, fingerprint_key: str) -> int:
        path = self.path_for(fingerprint_key)
        size = path.stat().st_size if path.exists() else 0
        cached = self._counts.get(fingerprint_key)
        if cached is None or cached[0] != size:
            cached = self._counts[fingerprint_key] = (size, len(self._lines(path)))
        return cached[1]

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record; returns it with its assigned ``seq``."""
        if not math.isfinite(record.total_time_us):
            raise HistoryStoreError("total_time_us must be finite")
        seq = self.count(record.fingerprint)
        stamped = RunRecord(
            fingerprint=record.fingerprint,
            seq=seq,
            label=record.label,
            workload=record.workload,
            total_time_us=record.total_time_us,
            intra_events=record.intra_events,
            inter_events=record.inter_events,
            coverage_confidence=record.coverage_confidence,
            sampling_coverage=record.sampling_coverage,
            f_score=record.f_score,
            sensors=record.sensors,
        )
        line = (encode_record(stamped) + "\n").encode("utf-8")
        with open(self.path_for(record.fingerprint), "a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":  # a torn tail: cut it off
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(line)
            self._counts[record.fingerprint] = (fh.tell(), seq + 1)
        return stamped

    def runs(self, fingerprint_key: str) -> list[RunRecord]:
        """The full trajectory of one fingerprint, in append order."""
        path = self.path_for(fingerprint_key)
        out = [decode_record(line.strip()) for line in self._lines(path)]
        for position, record in enumerate(out):
            if record.seq != position:
                raise HistoryStoreError(
                    f"{path.name}: seq {record.seq} at position {position} — "
                    "trajectory was reordered or truncated"
                )
        return out

    def total_runs(self) -> int:
        return sum(self.count(key) for key in self.fingerprints())
