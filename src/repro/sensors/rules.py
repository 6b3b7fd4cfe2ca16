"""Optional static rules (§3.1, Fig. 5).

The default decision rules (fixed instruction sequence for computation,
fixed message size/type for network, fixed transfer size for IO) are built
into the slicing engine.  This module hosts the *additional* static rules a
user may layer on top: each rule inspects an already-identified v-sensor and
may veto it.  More strict static rules produce fewer v-sensors.

Dynamic rules (cache-miss bands etc.) live in :mod:`repro.runtime.dynrules`;
they classify records at runtime instead of vetoing sensors at compile time.
"""

from __future__ import annotations

from typing import Protocol

from repro.ir.instructions import CallInstr, ConstInt
from repro.sensors.asttools import subtree_ids
from repro.sensors.model import SensorType, VSensor
from repro.sensors.summaries import SummaryTable


class StaticRule(Protocol):
    """One extra compile-time constraint on v-sensors."""

    name: str

    def accepts(self, sensor: VSensor, table: SummaryTable) -> bool:
        """Return False to veto the sensor."""
        ...


class FixedDestinationRule:
    """Network sensors must also have a compile-time-constant destination.

    The paper gives communication destination as the canonical static rule
    for real-world MPI programs: the peer is known at compile time, so a
    stricter user can require it to be a literal constant.
    """

    name = "fixed-destination"

    def accepts(self, sensor: VSensor, table: SummaryTable) -> bool:
        if sensor.sensor_type is not SensorType.NETWORK:
            return True
        fn = table.ir_function(sensor.function)
        if fn is None:
            return True
        snippet_ids = subtree_ids(sensor.snippet.node)
        for instr in fn.instructions():
            node = instr.ast_node
            if node is None or node.node_id not in snippet_ids:
                continue
            if not isinstance(instr, CallInstr) or instr.is_indirect:
                continue
            model = table.extern_model(instr.callee)
            if model is None or model.dest_arg is None:
                continue
            if model.dest_arg >= len(instr.args):
                continue
            if not isinstance(instr.args[model.dest_arg], ConstInt):
                return False
        return True


class TypeFilterRule:
    """Keep only sensors of the given types (e.g. network-only studies)."""

    def __init__(self, types: set[SensorType]) -> None:
        self.types = set(types)
        self.name = "type-filter[" + ",".join(sorted(t.value for t in types)) + "]"

    def accepts(self, sensor: VSensor, table: SummaryTable) -> bool:
        return sensor.sensor_type in self.types
