"""Program call graph: construction, preprocessing, and analysis order.

Implements workflow step 2a (Fig. 10 of the paper): build the call graph
from the calls that can execute, remove recursion cycles and calls through
function pointers, then order the functions so callees are analyzed before
callers (bottom-up).

Recursive invocations create cycles that prevent a topological sort, so
every edge inside a strongly connected component (a self-loop included) is
removed and the functions involved are marked *recursive*.  Functions whose
address is taken may be reached through pointers the analysis cannot see,
so they are marked *pointer-targets*.  Both groups are treated as
never-fixed-workload by the sensors layer (a conservative policy: it can
miss sensors, never fabricate them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import TopologicalSorter
from typing import TYPE_CHECKING

from repro.frontend import ast_nodes as A

if TYPE_CHECKING:  # pragma: no cover
    from repro.sensors.asttools import FunctionShape


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call with its resolution status."""

    caller: str
    callee: str
    call: A.CallExpr
    #: "defined"  — callee has a body in the module
    #: "extern"   — callee has no body (libc / MPI / unknown)
    #: "indirect" — call through a function pointer (unresolvable)
    kind: str


@dataclass(slots=True)
class CallGraph:
    """The program call graph.

    ``graph`` maps every *defined* function to the defined functions it
    calls directly.  Extern and indirect call sites produce no edges but
    are kept for the sensors layer.
    """

    graph: dict[str, set[str]] = field(default_factory=dict)
    sites: list[CallSite] = field(default_factory=list)
    #: functions whose address is taken (potential indirect targets)
    address_taken: set[str] = field(default_factory=set)
    #: call node_id -> its site
    site_of: dict[int, CallSite] = field(default_factory=dict)

    @property
    def extern_sites(self) -> list[CallSite]:
        return [s for s in self.sites if s.kind == "extern"]

    @property
    def indirect_sites(self) -> list[CallSite]:
        return [s for s in self.sites if s.kind == "indirect"]

    def callees_of(self, name: str) -> list[str]:
        return sorted(self.graph.get(name, ()))

    def callers_of(self, name: str) -> list[str]:
        return sorted(f for f, callees in self.graph.items() if name in callees)

    def sites_in(self, caller: str) -> list[CallSite]:
        return [s for s in self.sites if s.caller == caller]


def build_call_graph(module: A.Module, shapes: dict[str, FunctionShape]) -> CallGraph:
    """Build the call graph of ``module`` from each function's executable
    calls (``shapes``).  Every defined function becomes a node even if never
    called; calls through funcptr variables are recorded as indirect sites —
    the paper removes them because their targets are unknown at compile
    time."""
    cg = CallGraph(graph={fn.name: set() for fn in module.functions})
    for caller, shape in shapes.items():
        for node in shape.live:
            if isinstance(node, A.AddrOf):
                cg.address_taken.add(node.func_name)
            if not isinstance(node, A.CallExpr):
                continue
            if node.node_id in shape.indirect:
                kind = "indirect"
            elif node.callee in cg.graph:
                kind = "defined"
                cg.graph[caller].add(node.callee)
            else:
                kind = "extern"
            site = CallSite(caller=caller, callee=node.callee, call=node, kind=kind)
            cg.sites.append(site)
            cg.site_of[node.node_id] = site
    return cg


@dataclass(slots=True)
class PreprocessResult:
    """Pruned graph plus the bottom-up (callee-first) analysis order."""

    pruned: dict[str, set[str]]
    order: list[str]
    recursive_functions: set[str] = field(default_factory=set)
    pointer_targets: set[str] = field(default_factory=set)
    removed_edges: list[tuple[str, str]] = field(default_factory=list)

    def never_fixed(self) -> set[str]:
        """Functions the sensors layer must treat as never-fixed workload."""
        return self.recursive_functions | self.pointer_targets


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """Functions reachable from ``start`` through one or more calls."""
    seen: set[str] = set()
    stack = list(graph[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def preprocess_call_graph(cg: CallGraph) -> PreprocessResult:
    """Remove cycles and mark pointer targets; return callee-first order."""
    reach = {name: _reachable(cg.graph, name) for name in cg.graph}
    pruned: dict[str, set[str]] = {}
    removed: list[tuple[str, str]] = []
    for caller, callees in cg.graph.items():
        # An edge lies on a cycle exactly when its callee reaches back.
        cyclic = {callee for callee in callees if caller in reach[callee]}
        pruned[caller] = callees - cyclic
        removed.extend((caller, callee) for callee in sorted(cyclic))
    return PreprocessResult(
        pruned=pruned,
        # graphlib emits each node after its "predecessors": here, its callees.
        order=list(TopologicalSorter(pruned).static_order()),
        recursive_functions={name for name in cg.graph if name in reach[name]},
        pointer_targets=set(cg.address_taken),
        removed_edges=removed,
    )
