"""The vSensor dynamic module packaged as simulator hooks.

One :class:`~repro.runtime.batch_detector.BatchDetector` per run holds
every rank's smoothing, history and shutoff state and performs
intra-process detection online — record by record on the scalar tiers,
one fused Tock at a time on the lockstep tier.  Each rank's closed slices
are shipped to the :class:`AnalysisServer` in periodic batches (§5.4) as
views of the detector's log.  The report object (§5.5) is assembled at
the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrument.rewrite import SensorInfo
from repro.obs import NULL_OBS, Obs
from repro.runtime.batch_detector import BatchDetector, RankView
from repro.runtime.detector import DetectorConfig, VarianceEvent
from repro.runtime.dynrules import DynamicRule, NoGrouping
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
    #: per rank: the read-only :class:`RankView` of :attr:`detector`
    detectors: dict[int, RankView] = field(default_factory=dict)
    #: every rank's detector state and closed slices, built per run by
    #: :meth:`on_program_start`
    detector: BatchDetector = field(default=None, init=False)  # type: ignore[assignment]
    #: per rank: how many of its logged summaries have been handed to the
    #: server (the rest are its outbound buffer) and the virtual time of
    #: the last batch send
    _shipped: np.ndarray = None  # type: ignore[assignment]
    _last_batch: np.ndarray = None  # type: ignore[assignment]
    events: list[VarianceEvent] = field(default_factory=list)
    #: optional periodic reporter (workflow step 8's live updates)
    live: object | None = None
    #: optional :class:`~repro.runtime.governor.OverheadGovernor`; when set,
    #: it hears of every §5.3 shutoff and every record / variance event
    #: feeds its budget loop
    governor: object | None = None
    #: observability bundle; the disabled default keeps the per-record
    #: path free of tracer work (the detector gets ``metrics=None``)
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
        budget loop feeds back across ranks per record, which only the
        scalar record order can honour."""
        return self.governor is None

    def on_program_start(self, n_ranks: int) -> None:
        gov = self.governor
        self.detector = BatchDetector(
            n_ranks,
            self.config,
            self.rule,
            metrics=self.obs.metrics if self.obs.enabled else None,
            on_shutoff=gov.on_shutoff if gov is not None else None,
        )
        self.detectors = {rank: self.detector.view(rank) for rank in range(n_ranks)}
        self._shipped = np.zeros(n_ranks, dtype=np.int64)
        self._last_batch = np.zeros(n_ranks)

    def on_sensor_record(
        self, rank: int, sensor_id: int, t_start: float, t_end: float, pmu: PmuSample
    ) -> None:
        info = self.sensors.get(sensor_id)
        if info is None:
            return
        event = self.detector.add(
            rank, sensor_id, info.sensor_type, t_start, t_end,
            pmu.instructions, pmu.cache_miss_rate,
        )
        if event is not None:
            self.events.append(event)
        gov = self.governor
        if gov is not None:
            gov.on_record(rank, t_end)
            if event is not None:
                gov.on_variance(rank, t_end, event.performance, event.sensor_type)
        self._ship_if_due(rank, t_end)

    def on_sensor_batch(self, batch: SensorBatch, defer) -> None:
        info = self.sensors.get(batch.sensor_id)
        if info is None:
            return
        # Per-rank state advances now, in each rank's own record order ...
        new_events = self.detector.step(
            batch.sensor_id, info.sensor_type, batch.ranks, batch.t_start,
            batch.t_end, batch.instructions, batch.cache_miss_rate,
        )
        # ... what other ranks can see waits for the lane's flush point,
        # where the scalar engine's on_sensor_record would have run.
        for lane, event in new_events:
            defer(lane, self.events.append, (event,))
        ranks = batch.ranks
        due = (batch.t_end - self._last_batch[ranks] >= self.server.batch_period_us) & (
            self.detector.log.rows[ranks] > self._shipped[ranks]
        )
        for lane in np.flatnonzero(due).tolist():
            rank = int(ranks[lane])
            now = float(batch.t_end[lane])
            defer(lane, self._ship, (rank, self._take(rank, now), now))

    def on_program_end(self, rank: int, t: float) -> None:
        view = self.detectors.get(rank)
        if view is None:
            return
        self.events.extend(self.detector.finish(rank))
        self._ship_if_due(rank, t, force=True)
        if self.obs.enabled:
            # One virtual-time leaf span per rank's detection lifetime.
            # Governor attrs appear only when a governor is installed so
            # governed runs never perturb ungoverned golden traces.
            attrs = dict(
                rank=rank,
                records=view.records_processed,
                summaries=len(view.summaries),
                events=len(view.events),
                shutoff=len(view.shutoff),
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

    def _ship_if_due(self, rank: int, now: float, force: bool = False) -> None:
        due = now - self._last_batch[rank] >= self.server.batch_period_us
        if (due or force) and self.detector.log.rows[rank] > self._shipped[rank]:
            self._ship(rank, self._take(rank, now), now)

    def _take(self, rank: int, now: float):
        """``rank``'s summaries not yet handed over, as a view of the log;
        the batch period restarts."""
        summaries = self.detector.log.view(rank, self._shipped.item(rank))
        self._shipped[rank] = summaries.stop
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
