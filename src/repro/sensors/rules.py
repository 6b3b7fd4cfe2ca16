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

from repro.frontend import ast_nodes as A
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
        shape = table.shapes.get(sensor.function)
        if shape is None:
            return True
        for call in shape.live_calls(subtree_ids(sensor.snippet.node)):
            if table.is_indirect(call):
                continue
            model = table.extern_model(call.callee)
            if model is None or model.dest_arg is None:
                continue
            if model.dest_arg >= len(call.args):
                continue
            if not isinstance(call.args[model.dest_arg], A.IntLit):
                return False
        return True


class TypeFilterRule:
    """Keep only sensors of the given types (e.g. network-only studies)."""

    def __init__(self, types: set[SensorType]) -> None:
        self.types = set(types)
        self.name = "type-filter[" + ",".join(sorted(t.value for t in types)) + "]"

    def accepts(self, sensor: VSensor, table: SummaryTable) -> bool:
        return sensor.sensor_type in self.types
