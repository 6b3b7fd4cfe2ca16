"""Identification of every registered workload, pinned.

Per workload: snippets, sensors, global sensors, instrumented sensors and
rejections by reason code, plus a digest that covers,
per snippet in discovery order, the verdict, the first rejection code,
``len(scope_loops)``, ``is_function_scope``, ``is_global``,
``rank_invariant``, ``param_deps`` and ``global_deps``.  Both were recorded
when identification still ran on a three-address IR, so they hold the AST
analysis to exactly what the IR analysis decided.
"""

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.api import compile_and_instrument
from repro.workloads import all_workloads

PINNED = {
    # name: (snippets, sensors, global, instrumented, rejections, digest)
    "AMG": (19, 5, 5, 2, {"ARRAY_LOAD": 3, "CALLEE_NONFIXED_WORKLOAD": 7, "NOT_PROMOTABLE": 4},
            "bca8eca391bc8d89"),
    "BT": (39, 37, 37, 6, {"NOT_PROMOTABLE": 2}, "981756fbb09e573f"),
    "CG": (19, 13, 13, 6,
           {"CALLEE_NONFIXED_WORKLOAD": 2, "EXTERN_NONFIXED_RETURN": 1, "NOT_PROMOTABLE": 3},
           "d9db550a28824d4d"),
    "CHKPT": (7, 6, 6, 3, {"NOT_PROMOTABLE": 1}, "aa65e1d7c5d288ec"),
    "FT": (14, 10, 9, 5, {"NOT_PROMOTABLE": 4}, "65862c79d452fd1f"),
    "FWQ": (2, 1, 1, 1, {"NOT_PROMOTABLE": 1}, "1b42bbfe701957e5"),
    "LU": (23, 21, 21, 7, {"NOT_PROMOTABLE": 2}, "c07ad9434c642469"),
    "LULESH": (15, 11, 11, 4,
               {"CALLEE_NONFIXED_WORKLOAD": 2, "EXTERN_NONFIXED_RETURN": 1, "NOT_PROMOTABLE": 1},
               "ab04ff072ebc413d"),
    "RAXML": (15, 9, 9, 5, {"MIXED_DEFS": 1, "NOT_PROMOTABLE": 5}, "b06e9163856e3ebb"),
    "SP": (20, 18, 18, 7, {"NOT_PROMOTABLE": 2}, "2a69c065be7210dd"),
}


def snippet_rows(ident):
    sensors = {s.sensor_id: s for s in ident.sensors}
    first = {}
    for rejection in ident.rejections:
        first.setdefault(rejection.snippet.snippet_id, rejection.code.name)
    rows = []
    for snippet in ident.snippets:
        s = sensors.get(snippet.snippet_id)
        if s is None:
            rows.append(["rejected", first.get(snippet.snippet_id)] + [None] * 6)
        else:
            rows.append([
                "sensor", None, len(s.scope_loops), s.is_function_scope, s.is_global,
                s.rank_invariant, sorted(s.param_deps), sorted(s.global_deps),
            ])
    return rows


def test_every_registered_workload_is_pinned():
    assert set(PINNED) == set(all_workloads())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_identification_matches_the_pinned_counts_and_digest(name):
    static = compile_and_instrument(all_workloads()[name].source(), store=None)
    ident = static.identification
    rejections = collections.Counter(r.code.name for r in ident.rejections)
    digest = hashlib.sha256(
        json.dumps(snippet_rows(ident), sort_keys=True).encode()
    ).hexdigest()[:16]
    assert (
        ident.snippet_count,
        len(ident.sensors),
        sum(s.is_global for s in ident.sensors),
        len(static.program.sensors),
        dict(rejections),
        digest,
    ) == PINNED[name]


HASH_PROBE = """
from repro.frontend.parser import parse_source
from repro.sensors import identify_vsensors
SRC = (
    "global int A[4];"
    "int pick(int u, int v, int w, int z) { return u + v + w + z; }"
    "int main() { int i; int n; int k;"
    "  for (k = 0; k < 5; k = k + 1) {"
    "    n = pick(A[0], rand(), k, MPI_Comm_rank());"
    "    for (i = 0; i < n; i = i + 1) compute_units(3);"
    "  }"
    "  return 0; }"
)
print([r.code.name for r in identify_vsensors(parse_source(SRC)).rejections])
"""


def test_first_reasons_do_not_depend_on_set_order():
    """A callee's return reads four parameters that fail in different ways;
    the first reason recorded must not follow string-hash set order, which
    changes from one interpreter to the next."""
    src = str(Path(repro.__file__).resolve().parents[1])
    seen = set()
    for seed in ("1", "2", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", HASH_PROBE], capture_output=True,
                             text=True, env=env, check=True)
        seen.add(out.stdout.strip())
    assert len(seen) == 1, seen
