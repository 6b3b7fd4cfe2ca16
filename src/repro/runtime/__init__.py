"""The dynamic module: online performance-variance detection (Section 5).

Record flow, mirroring the paper's pipeline:

1. probe records arrive per rank (:mod:`repro.runtime.records`),
2. one :class:`~repro.runtime.batch_detector.BatchDetector` per run holds
   every rank's state: records are aggregated over small time slices to
   filter high-frequency OS noise (§5.1), slice averages are normalized
   against the sensor's fastest observation — one scalar of history per
   sensor (§5.2, §5.3) — optionally split by dynamic-rule groups
   (:mod:`repro.runtime.dynrules`), and sensors too short to time are
   shut off (§5.3); closed slices are rows of its
   :class:`~repro.runtime.batch_detector.SummaryLog`,
3. each rank batches its slice summaries to the analysis server
   (:mod:`repro.runtime.server`, §5.4), which performs inter-process
   comparison and builds the per-component performance matrices the
   visualizer renders (§5.5).

Batch delivery is fault-tolerant: the message path can run over a seeded
lossy channel (:mod:`repro.runtime.channel`) with sequenced retrying
delivery (:mod:`repro.runtime.transport`), and the server's ingest is
idempotent and delivery-order invariant, so dropped / duplicated /
reordered batches never skew the matrices.

:class:`~repro.runtime.vsensor_hooks.VSensorRuntime` packages all of this
behind the simulator's hook interface.
"""

from repro.runtime.batch_detector import BatchDetector
from repro.runtime.channel import ChannelConfig, ChannelStats, LossyChannel
from repro.runtime.columnar import ColumnarStore
from repro.runtime.detector import DetectorConfig, VarianceEvent
from repro.runtime.dynrules import (
    CacheMissBands,
    DynamicRule,
    InstructionBands,
    NoGrouping,
    ThresholdMiss,
)
from repro.runtime.history import SensorHistory, observe_block
from repro.runtime.records import SensorRecord, SliceSummary, SummaryColumns
from repro.runtime.report import VarianceReport
from repro.runtime.server import AnalysisServer, InterProcessEvent
from repro.runtime.transport import FileSpool, ReliableTransport, RetryPolicy
from repro.runtime.vsensor_hooks import VSensorRuntime

__all__ = [
    "AnalysisServer",
    "BatchDetector",
    "CacheMissBands",
    "ChannelConfig",
    "ChannelStats",
    "ColumnarStore",
    "FileSpool",
    "InterProcessEvent",
    "LossyChannel",
    "ReliableTransport",
    "RetryPolicy",
    "DetectorConfig",
    "DynamicRule",
    "InstructionBands",
    "NoGrouping",
    "ThresholdMiss",
    "SensorHistory",
    "SensorRecord",
    "SliceSummary",
    "SummaryColumns",
    "VSensorRuntime",
    "VarianceEvent",
    "VarianceReport",
    "observe_block",
]
