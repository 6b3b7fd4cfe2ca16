"""The vSensor dynamic module packaged as simulator hooks.

One :class:`RankDetector` per rank performs smoothing, history comparison
and intra-process detection online; slice summaries are buffered per rank
and shipped to the :class:`AnalysisServer` in periodic batches (§5.4).
The report object (§5.5) is assembled at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrument.rewrite import SensorInfo
from repro.obs import NULL_OBS, Obs
from repro.runtime.batch_detector import BatchDetector
from repro.runtime.detector import DetectorConfig, RankDetector, VarianceEvent
from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.records import SensorRecord
from repro.runtime.report import VarianceReport, build_report
from repro.runtime.server import AnalysisServer
from repro.sim.hooks import RuntimeHooks, SensorBatch
from repro.sim.pmu import PmuSample


@dataclass(slots=True)
class VSensorRuntime(RuntimeHooks):
    """Install on a simulated run to perform online variance detection."""

    sensors: dict[int, SensorInfo]
    n_ranks: int
    config: DetectorConfig = field(default_factory=DetectorConfig)
    rule: DynamicRule = field(default_factory=NoGrouping)
    server: AnalysisServer = None  # type: ignore[assignment]
    #: per rank: a :class:`RankDetector`, or after the first fused Tock a
    #: :class:`~repro.runtime.batch_detector.RankView` of :attr:`_vector`
    detectors: dict[int, RankDetector] = field(default_factory=dict)
    #: the detectors' state as arrays over ranks once a lockstep run has
    #: delivered a fused Tock; ``None`` on the scalar tiers
    _vector: BatchDetector | None = None
    #: per rank: how many of its detector's summaries have been handed to
    #: the server (the rest are its outbound buffer) and the virtual time
    #: of the last batch send
    _shipped: np.ndarray = None  # type: ignore[assignment]
    _last_batch: np.ndarray = None  # type: ignore[assignment]
    events: list[VarianceEvent] = field(default_factory=list)
    #: optional periodic reporter (workflow step 8's live updates)
    live: object | None = None
    #: optional :class:`~repro.runtime.governor.OverheadGovernor`; when set,
    #: detectors get governor-instrumented §5.3 lifecycles and every record /
    #: variance event feeds the budget loop
    governor: object | None = None
    #: observability bundle; the disabled default keeps the per-record
    #: path free of tracer work (detectors get ``metrics=None``)
    obs: Obs = field(default_factory=lambda: NULL_OBS)

    def __post_init__(self) -> None:
        if self.server is None:
            enabled = self.obs.enabled
            self.server = AnalysisServer(
                n_ranks=self.n_ranks,
                metrics=self.obs.metrics if enabled else None,
                obs=self.obs if enabled else None,
            )

    # -- hook interface ----------------------------------------------------

    @property
    def accepts_sensor_batches(self) -> bool:
        """Fused Tocks are taken whole unless a governor is installed: its
        lifecycles feed back across ranks per record, which only the scalar
        record order can honour."""
        return self.governor is None

    def on_program_start(self, n_ranks: int) -> None:
        metrics = self.obs.metrics if self.obs.enabled else None
        gov = self.governor
        self._vector = None
        self._shipped = np.zeros(n_ranks, dtype=np.int64)
        self._last_batch = np.zeros(n_ranks)
        for rank in range(n_ranks):
            self.detectors[rank] = RankDetector(
                rank=rank,
                config=self.config,
                rule=self.rule,
                metrics=metrics,
                lifecycle=gov.lifecycle(rank) if gov is not None else None,
            )

    def on_sensor_record(
        self, rank: int, sensor_id: int, t_start: float, t_end: float, pmu: PmuSample
    ) -> None:
        info = self.sensors.get(sensor_id)
        if info is None:
            return
        detector = self.detectors[rank]
        record = SensorRecord(
            rank=rank,
            sensor_id=sensor_id,
            sensor_type=info.sensor_type,
            t_start=t_start,
            t_end=t_end,
            instructions=pmu.instructions,
            cache_miss_rate=pmu.cache_miss_rate,
        )
        new_events = detector.add(record)
        self.events.extend(new_events)
        gov = self.governor
        if gov is not None:
            gov.on_record(rank, t_end)
            if new_events:
                worst = min(new_events, key=lambda e: e.performance)
                gov.on_variance(rank, t_end, worst.performance, worst.sensor_type)
        self._ship_if_due(rank, detector, t_end)

    def on_sensor_batch(self, batch: SensorBatch, defer) -> None:
        info = self.sensors.get(batch.sensor_id)
        if info is None:
            return
        vec = self._vector
        if vec is None:
            vec = self._vector = BatchDetector.adopt(self.detectors)
            self.detectors = {rank: vec.view(rank) for rank in self.detectors}
        # Per-rank state advances now, in each rank's own record order ...
        new_events = vec.step(
            batch.sensor_id, info.sensor_type, batch.ranks, batch.t_start,
            batch.t_end, batch.instructions, batch.cache_miss_rate,
        )
        # ... what other ranks can see waits for the lane's flush point,
        # where the scalar engine's on_sensor_record would have run.
        for lane, event in new_events:
            defer(lane, self.events.append, (event,))
        ranks = batch.ranks
        due = (batch.t_end - self._last_batch[ranks] >= self.server.batch_period_us) & (
            vec.log.rows[ranks] > self._shipped[ranks]
        )
        for lane in np.flatnonzero(due).tolist():
            rank = int(ranks[lane])
            now = float(batch.t_end[lane])
            defer(lane, self._ship, (rank, self._take(rank, self.detectors[rank], now), now))

    def on_program_end(self, rank: int, t: float) -> None:
        detector = self.detectors.get(rank)
        if detector is None:
            return
        self.events.extend(detector.finish())
        self._ship_if_due(rank, detector, t, force=True)
        if self.obs.enabled:
            # One virtual-time leaf span per rank's detection lifetime.
            # Governor attrs appear only when a governor is installed so
            # governed runs never perturb ungoverned golden traces.
            attrs = dict(
                rank=rank,
                records=detector.records_processed,
                summaries=len(detector.summaries),
                events=len(detector.events),
                shutoff=len(detector.shutoff),
            )
            gov = self.governor
            if gov is not None:
                tally = gov.decisions.get(rank)
                if tally:
                    attrs.update(
                        demote=tally["demote"],
                        promote=tally["promote"],
                        suspend=tally["suspend"],
                    )
            self.obs.tracer.emit("runtime.rank_detector", 0.0, t, **attrs)

    # -- batching to the analysis server (§5.4) ------------------------------

    def _ship_if_due(self, rank: int, detector, now: float, force: bool = False) -> None:
        due = now - self._last_batch[rank] >= self.server.batch_period_us
        if (due or force) and len(detector.summaries) > self._shipped[rank]:
            self._ship(rank, self._take(rank, detector, now), now)

    def _take(self, rank: int, detector, now: float):
        """``rank``'s summaries not yet handed over — a list slice of a
        :class:`RankDetector`'s, a view of the vector log; the batch period
        restarts."""
        summaries = detector.summaries[int(self._shipped[rank]) :]
        self._shipped[rank] += len(summaries)
        self._last_batch[rank] = now
        return summaries

    def _ship(self, rank: int, summaries, now: float) -> None:
        """Send one batch: everything other ranks and the server can see."""
        # Time-aware transports (ReliableTransport) take the virtual
        # send time; the plain server keeps the two-argument form.
        send = getattr(self.server, "send_batch", None)
        if send is not None:
            send(rank, summaries, now)
        else:
            self.server.receive_batch(rank, summaries)
        if self.obs.enabled:
            self.obs.metrics.counter("runtime.batches_shipped").inc()
        if self.live is not None:
            self.live.maybe_snapshot(self, now)

    # -- results -----------------------------------------------------------

    def report(self, total_time: float) -> VarianceReport:
        """Assemble the final variance report (workflow step 8 input)."""
        self.server.detect_inter_process()
        return build_report(self, total_time)
