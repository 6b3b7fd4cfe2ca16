"""One end-to-end benchmark of the whole system (see README.md).

Six named workloads, seven end-to-end metrics with regression bounds, and
a separate traced pass that attributes time to layers from outside
``src/``.  Declared to the driver by ``BENCHMARK.json`` at the repo root.
"""
