"""v-sensor identification — the paper's core contribution (Section 3).

A *snippet* is a loop or a function call inside a loop.  A snippet is a
*v-sensor* of an enclosing loop L when its quantity of work cannot change
between iterations of L.  This package implements the dependency-propagation
algorithm that decides this:

* :mod:`repro.sensors.slicer` — backward slicing over use–define chains,
  bounded by the snippet's AST subtree, with per-loop variance checking
  (intra-procedural analysis, §3.2), whole-function input extraction, and
  process-identity (rank) dependence tracked along the same slice (§3.4).
* :mod:`repro.sensors.summaries` — bottom-up function summaries over the
  preprocessed call graph: workload dependencies, return-value
  dependencies, global mod-sets (§3.3, §3.5).
* :mod:`repro.sensors.extern` — workload descriptions of external (libc /
  MPI) functions; the undescribed ones are treated as never-fixed (§3.5).
* :mod:`repro.sensors.identify` — the driver that enumerates snippets,
  runs the analyses and computes scopes, and the one classifier
  (``classify_snippet``: Computation / Network / IO).
* :mod:`repro.sensors.rules` — optional extra static rules (§3.1).
"""

from repro.sensors.extern import ExternModel, ExternRegistry, default_extern_registry
from repro.sensors.identify import IdentificationResult, identify_vsensors
from repro.sensors.model import SensorType, Snippet, SnippetKind, VSensor
from repro.sensors.rules import FixedDestinationRule, StaticRule

__all__ = [
    "ExternModel",
    "ExternRegistry",
    "FixedDestinationRule",
    "IdentificationResult",
    "SensorType",
    "Snippet",
    "SnippetKind",
    "StaticRule",
    "VSensor",
    "default_extern_registry",
    "identify_vsensors",
]
