"""``--compare A.json B.json``: two result files, judged by the benchmark's bounds."""

from __future__ import annotations

import json

from benchmarks.e2e import measure, spec


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _quartet(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def verdict(metric: spec.Metric, a: list[float], b: list[float]) -> tuple[str, dict]:
    """``better / same / worse / unresolved`` for B against base A."""
    a_q1, a_med, a_q3 = measure.quartiles(a)
    b_q1, b_med, b_q3 = measure.quartiles(b)
    facts = {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "ratio": b_med / a_med if a_med else float("nan"),
    }
    scale = abs(a_med) or 1.0
    gain = (b_med - a_med) / scale
    if metric.better == "lower":
        gain = -gain
    if b_med == a_med:
        return "same", facts
    # One run per side resolves nothing; nor does a base noisier than the bound.
    if min(len(a), len(b)) < 2 or (a_q3 - a_q1) / scale > metric.bound:
        return "unresolved", facts
    if gain < -metric.bound:
        return "worse", facts
    if gain > metric.bound:
        return "better", facts
    return "same", facts


def compare(path_a: str, path_b: str) -> int:
    """Print the comparison; 1 if any metric is ``worse``, else 0."""
    doc_a, doc_b = _load(path_a), _load(path_b)
    detail_a, detail_b = doc_a["detail"], doc_b["detail"]
    worse = 0
    print(f"A = {path_a} ({doc_a['header']['git_sha'][:12]})  base of every ratio")
    print(f"B = {path_b} ({doc_b['header']['git_sha'][:12]})")
    print(
        f"{'workload/metric':<34s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    )
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.END_TO_END:
            key = f"{workload}/{metric.name}"
            if key not in detail_a or key not in detail_b:
                continue
            word, facts = verdict(
                metric, detail_a[key]["samples"], detail_b[key]["samples"]
            )
            worse += word == "worse"
            print(
                f"{key:<34s} {_quartet(facts['a']):>32s} {_quartet(facts['b']):>32s} "
                f"{facts['ratio']:>7.3f} {metric.bound:>6.2f}  {word}"
            )
    if doc_a["header"]["seed"] != doc_b["header"]["seed"]:
        print("exact per-layer counts not compared: the two files used different seeds")
    else:
        for key in sorted(set(detail_a) & set(detail_b)):
            if detail_a[key].get("exact") and detail_a[key]["samples"] != detail_b[key]["samples"]:
                print(
                    f"EXACT COUNT DIFFERS {key}: "
                    f"A={detail_a[key]['samples']} B={detail_b[key]['samples']}"
                )
    print(f"{worse} metric(s) worse")
    return 1 if worse else 0
