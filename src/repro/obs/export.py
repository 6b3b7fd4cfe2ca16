"""Trace exporters: Chrome ``trace_event`` JSON and a plain-text flame summary.

The Chrome format is the catapult/Perfetto-loadable subset: complete
("X") events with µs timestamps, one ``tid`` per tracer track, and span
attributes in ``args``.  :func:`parse_chrome_trace` reads that subset back
— the golden suite round-trips every export through it so the emitted
schema can never silently drift.
"""

from __future__ import annotations

import json

from repro.errors import ReproError
from repro.obs.tracer import SpanRecord, Tracer

#: stable tid assignment per tracer track
_TRACK_TIDS = {"real": 0, "sim": 1}


class TraceFormatError(ReproError):
    """A trace JSON document does not match the exported schema."""


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's buffer as a Chrome ``trace_event`` JSON document."""
    events: list[dict] = []
    for track, tid in sorted(_TRACK_TIDS.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for record in tracer.records():
        event = {
            "name": record.name,
            "cat": record.track,
            "ph": "X",
            "ts": record.t_enter,
            "dur": record.duration_us,
            "pid": 0,
            "tid": _TRACK_TIDS.get(record.track, len(_TRACK_TIDS)),
            "args": dict(record.attrs) if record.attrs else {},
        }
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": tracer.buffer.dropped},
    }


def parse_chrome_trace(document: dict | str) -> list[dict]:
    """Validate and return the complete-span events of an exported trace.

    Accepts the dict or its JSON text.  Raises :class:`TraceFormatError`
    on any event that does not match the schema :func:`chrome_trace`
    emits.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise TraceFormatError("not a trace document: missing 'traceEvents'")
    spans: list[dict] = []
    for i, event in enumerate(document["traceEvents"]):
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            raise TraceFormatError(f"event {i}: unsupported phase {ph!r}")
        for key, kind in (("name", str), ("ts", (int, float)), ("dur", (int, float)),
                          ("pid", int), ("tid", int), ("args", dict)):
            if not isinstance(event.get(key), kind):
                raise TraceFormatError(f"event {i}: bad or missing {key!r}")
        if event["dur"] < 0:
            raise TraceFormatError(f"event {i}: negative duration")
        spans.append(event)
    return spans


def flame_summary(tracer: Tracer, track: str = "real") -> str:
    """Aggregate spans by call path into an indented text summary.

    One line per distinct path: share of the track's root time, total
    time, hit count, indented name.  Siblings sort by total time
    descending so the hot path reads top-to-bottom.
    """
    records = [r for r in tracer.records() if r.track == track]
    if not records:
        return f"(no {track}-track spans recorded)"
    by_seq = {r.seq: r for r in tracer.records()}

    def path_of(record: SpanRecord) -> tuple[str, ...]:
        names: list[str] = [record.name]
        parent = record.parent
        while parent != -1:
            above = by_seq.get(parent)
            if above is None:  # parent dropped by wraparound or still open:
                break  # the span roots at its highest surviving ancestor
            if above.track == track:  # other-track ancestors don't shape this flame
                names.append(above.name)
            parent = above.parent
        return tuple(reversed(names))

    totals: dict[tuple[str, ...], list[float]] = {}
    for record in records:
        entry = totals.setdefault(path_of(record), [0.0, 0])
        entry[0] += record.duration_us
        entry[1] += 1
    root_total = sum(us for path, (us, _) in totals.items() if len(path) == 1)
    root_total = root_total or 1.0

    def render(prefix: tuple[str, ...], depth: int, out: list[str]) -> None:
        children = [
            (path, stats)
            for path, stats in totals.items()
            if len(path) == depth + 1 and path[:depth] == prefix
        ]
        children.sort(key=lambda item: (-item[1][0], item[0]))
        for path, (us, count) in children:
            out.append(
                f"{us / root_total:7.1%} {_fmt_us(us):>10s} {count:>6d}x  "
                + "  " * depth
                + path[-1]
            )
            render(path, depth + 1, out)

    lines = [
        f"flame summary ({track} track) — {_fmt_us(root_total)} total, "
        f"{len(records)} span(s)"
    ]
    render((), 0, lines)
    if tracer.buffer.dropped:
        lines.append(f"(+{tracer.buffer.dropped} dropped by ring wraparound)")
    return "\n".join(lines)


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.0f}us"


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1, sort_keys=True)


def metrics_document(registry) -> dict:
    """Metrics registry as a JSON-ready document (``--metrics-out``)."""
    return registry.as_dict()


def write_metrics(registry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_document(registry), fh, indent=1, sort_keys=True)
