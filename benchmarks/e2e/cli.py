"""Command line of the end-to-end benchmark.

* ``--workload NAME`` runs one workload in this interpreter and prints the
  driver's result object as the last line of standard output
  (``--trace 0``: the end-to-end metrics; ``--trace 1``: the per-layer
  metrics of the traced pass).
* Without ``--workload`` every workload runs, each in a fresh interpreter
  (so ``peak_rss_mb`` is per workload), tracing off, ``--repeats`` times;
  ``--traced`` adds the separate traced pass.  Exit status is non-zero if
  any operation failed its output check.
* ``--compare A.json B.json`` judges two result files by the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.e2e import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="how long one run measures (default %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 runs the traced pass and reports per-layer metrics")
    p.add_argument("--trace-out", metavar="SPANS.json",
                   help="with --workload: write the traced pass's spans here (implies --trace 1)")
    p.add_argument("--traced", action="store_true",
                   help="all-workload mode: also run the traced pass of every workload")
    p.add_argument("--repeats", type=int, default=1,
                   help="all-workload mode: runs per workload (10 for a comparison)")
    p.add_argument("--smoke", action="store_true",
                   help="8-rank programs, 2 operations, both passes: a functional check")
    p.add_argument("--out", metavar="RESULTS.json", help="all-workload mode: write results here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return p


# -- one workload, this interpreter ----------------------------------------------


def _run_one(args, started: float) -> int:
    from benchmarks.e2e import runner

    traced = bool(args.trace or args.trace_out)
    run = runner.run_workload(
        args.workload,
        seed=args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        traced=traced,
        smoke=args.smoke,
        started=started,
        trace_out=args.trace_out,
    )
    print(f"# {run.workload} seed={run.seed} ops={run.ops} "
          f"attempted={run.attempted} failed={run.failed} {' '.join(run.flags)}")
    for name, value in run.metrics.items():
        m = spec.METRICS[name]
        bound = f" bound {m.bound:g}" if m.bound is not None else ""
        print(f"# {name:<44s} {value:>16.6g} {m.unit:<8s} {m.better} is better{bound}")
    if run.failure:
        print(f"# FAILED: {run.failure}", file=sys.stderr)
    # Second-to-last line: what the all-workload mode collects.
    print(json.dumps({"workload": run.workload, "ops": run.ops, "flags": run.flags,
                      "end_to_end": run.end_to_end, "per_layer": run.per_layer}))
    print(json.dumps(run.result_line()))
    return 0


# -- every workload, fresh interpreters --------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _spawn(workload: str, args, traced: bool) -> tuple[dict, dict]:
    """One workload run in a fresh interpreter; its (info, result) lines."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=spec.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    info, result = proc.stdout.rstrip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def _run_all(args) -> int:
    import numpy

    t0 = time.perf_counter()
    # A smoke run takes both metric sets from one traced run per workload;
    # otherwise end-to-end numbers come only from full-length untraced runs.
    passes = [True] if args.smoke else [False, True] if args.traced else [False]
    samples: dict[str, list[float]] = {}
    ops_counts: dict[str, list[int]] = {}
    flags: dict[str, list[str]] = {}
    attempted = failed = 0
    jobs = [
        (workload, traced_run)
        for workload in spec.WORKLOAD_NAMES
        for traced_run in passes
        for _ in range(1 if traced_run else args.repeats)
    ]
    # Timings mean nothing in a smoke run, so its children share the cores;
    # measuring runs go strictly one after another.
    with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) if args.smoke else 1) as pool:
        outcomes = list(pool.map(lambda job: _spawn(job[0], args, job[1]), jobs))
    for (workload, traced_run), (info, line) in zip(jobs, outcomes):
        attempted += line["attempted"]
        failed += line["failed"]
        if info["flags"]:
            flags[workload] = info["flags"]
        metrics = dict(info["per_layer"] or {})
        if not traced_run or args.smoke:
            ops_counts.setdefault(workload, []).append(info["ops"])
            metrics.update(info["end_to_end"])
        for name, value in metrics.items():
            samples.setdefault(f"{workload}/{name}", []).append(value)

    header = {
        "benchmark": "benchmarks/e2e",
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "ops": ops_counts,
        "flags": flags,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        #: every number below was measured on this host; nothing is modeled
        "measured": True,
        "wall_s": time.perf_counter() - t0,
    }
    doc = {
        "header": header,
        "values": {key: statistics.median(vals) for key, vals in samples.items()},
        "detail": {key: _detail(key, vals) for key, vals in samples.items()},
    }
    _print_table(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if failed:
        print(f"{failed} of {attempted} operations failed their output check", file=sys.stderr)
    return 1 if failed else 0


def _detail(key: str, values: list[float]) -> dict:
    m = spec.METRICS[key.split("/", 1)[1]]
    return {"unit": m.unit, "better": m.better, "bound": m.bound, "exact": m.exact,
            "measured": True, "samples": values}


def _print_table(doc: dict) -> None:
    h = doc["header"]
    print(f"benchmarks/e2e  sha={h['git_sha'][:12]} nproc={h['nproc']} python={h['python']} "
          f"numpy={h['numpy']} seed={h['seed']} repeats={h['repeats']} wall={h['wall_s']:.1f}s")
    print(f"{'metric':<18s} {'unit':<8s} {'better':<7s} {'bound':>5s} "
          + " ".join(f"{w:>15s}" for w in spec.WORKLOAD_NAMES))
    for m in spec.END_TO_END:
        cells = " ".join(
            f"{doc['values'].get(f'{w}/{m.name}', float('nan')):>15.6g}"
            for w in spec.WORKLOAD_NAMES
        )
        print(f"{m.name:<18s} {m.unit:<8s} {m.better:<7s} {m.bound:>5.2f} {cells}")
    print(f"failed_share       ratio    lower    0.00 {h['failed_share']:>15.6g} "
          f"({h['failed']} of {h['attempted']} operations, all workloads)")
    layer_keys = [k for k in doc["values"] if k.split("/", 1)[1] in spec.PER_LAYER_NAMES]
    if layer_keys:
        print("\nper-layer (traced pass; 0 = layer not exercised by the workload)")
        print(f"{'metric':<44s} " + " ".join(f"{w:>15s}" for w in spec.WORKLOAD_NAMES))
        for m in spec.PER_LAYER:
            cells = " ".join(
                f"{doc['values'].get(f'{w}/{m.name}', float('nan')):>15.6g}"
                for w in spec.WORKLOAD_NAMES
            )
            print(f"{m.name + (' (exact)' if m.exact else ''):<44s} {cells}")


def main(argv=None, started: float | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from benchmarks.e2e import compare

        return compare.compare(*args.compare)
    if args.workload:
        return _run_one(args, started if started is not None else time.perf_counter())
    return _run_all(args)
