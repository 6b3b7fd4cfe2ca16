"""Runtime-adaptive sensor lifecycle: the overhead governor.

The static selector (§4) picks sensors once; the paper's only runtime
knob is the §5.3 shutoff — one-way, per rank, decided after a fixed
number of records and never revisited.  This module refactors that
lifecycle into mutable runtime state threaded through every layer that
touches a probe:

* :class:`SensorControl` — one sensor's per-rank state machine:
  ``enabled`` → ``sampled`` (keep 1-in-N executions) → ``suspended``,
  with exact execution accounting (every probe execution is classified
  as exactly one of kept / sampled-out / suppressed — nothing is
  double-counted or silently dropped).
* :class:`SensorControlTable` — the engine-facing consult surface.  All
  three interpreter tiers ask it, per probe execution, whether to pay
  the full probe (``machine.probe_cost`` each side, PMU read, record
  emission) or only a cheap table check (:data:`CHECK_COST` each side,
  no record).  The decision is **latched at tick**: the matching tock
  completes whatever the tick decided, so state changes between a
  tick and its tock can never corrupt probe pairing.
* :class:`OverheadGovernor` — the control loop.  At slice boundaries it
  compares the rank's probe self-cost (kept/skipped record counts ×
  per-record virtual cost) against an overhead-budget fraction of
  elapsed virtual time, demotes the cheapest-information sensors first
  (ordered by the selector's exported cost/frequency estimates), and
  re-promotes demoted sensors the moment a sibling sensor on the same
  rank reports variance.  The detector's §5.3 rule still runs and
  reports each shutoff through :meth:`OverheadGovernor.on_shutoff`,
  which pins it as a permanent suspension (a sensor too short to time
  is never worth re-promoting).

Decisions are **deterministic**: they depend only on virtual-time
record accounting, never on host wall time.  The obs layer's measured
``self_cost_s`` is surfaced alongside (:meth:`OverheadGovernor.summary`)
for calibration, but feeding wall time into the control loop would make
simulated runs non-reproducible, so the loop sticks to the virtual-cost
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.detector import DetectorConfig

#: control states
ENABLED = "enabled"
SAMPLED = "sampled"
SUSPENDED = "suspended"

#: decision kinds tallied per rank (CLI / report surface)
DECISIONS = ("demote", "promote", "suspend", "resample")

#: promote only when spend is below this fraction of the budget
PROMOTE_HEADROOM = 0.5
#: variance-triggered promotion fires only for events at least this severe
#: (normalized performance below this).  Ordinary machine jitter produces a
#: steady trickle of events just under the 0.7 detection threshold; if every
#: one of them re-promoted, the budget loop could never hold a demotion.
#: Genuine faults land far lower.
PROMOTE_SEVERITY = 0.5
#: ...but not *too* far: a systemic slowdown (contention, thermal
#: throttling, a bad node) scales durations by a bounded factor, while an
#: isolated extreme outlier — an OS interrupt or SMI landing inside one
#: snippet execution — craters performance to near zero.  Events below this
#: floor are treated as measurement artifacts and do not trigger promotion.
#: ``performance == 0.0`` (programmatic signal) is exempt.
PROMOTE_FLOOR = 0.2
#: a *sustained* episode, not an isolated noise spike, is what deserves
#: full telemetry: permanent promotion needs this many severe events
#: within ``PROMOTE_CONFIRM_WINDOW_US`` on the rank.  An event with
#: ``performance == 0.0`` (a programmatic maximal-severity signal)
#: bypasses confirmation and promotes immediately.
PROMOTE_CONFIRM = 3
#: the window ``PROMOTE_CONFIRM`` severe events must fall in
PROMOTE_CONFIRM_WINDOW_US = 3000.0
#: an *unconfirmed* severe event starts a probation: demoted sensors run
#: at full rate for this long, so a genuine episode (one severe event per
#: slice at full rate) confirms within the window, while an isolated
#: spike costs only this much full-rate telemetry before the saved
#: sampling states are restored
PROBATION_US = 3000.0
#: work units charged per *side* (tick or tock) of a skipped probe: the
#: table check
CHECK_COST = 0.1


@dataclass(slots=True)
class SensorControl:
    """Per-(rank, sensor) lifecycle state with exact execution accounting."""

    state: str = ENABLED
    #: keep 1 in this many executions while ``state == SAMPLED``
    sample_period: int = 1
    #: rolling position within the sampling period
    phase: int = 0
    #: §5.3 shutoff suspensions are pinned: never re-promoted
    pinned: bool = False
    executions: int = 0
    kept: int = 0
    sampled_out: int = 0
    suppressed: int = 0
    #: skipped ticks awaiting their matching tock
    pending_skips: int = 0

    def covered(self) -> int:
        """Executions statistically represented in analysis output.

        Kept records are directly represented; sampled-out executions are
        represented by their kept 1-in-N siblings.  Suppressed executions
        are not represented at all.
        """
        return self.kept + self.sampled_out


class SensorControlTable:
    """Engine-facing consult surface over per-rank control states.

    ``decide`` is the single mutation point of the accounting counters:
    every probe execution lands in exactly one of kept / sampled-out /
    suppressed, which is the invariant the coverage correction (and the
    Hypothesis property suite) rests on.  ``peek``/``peek_skip`` are
    side-effect-free so the lockstep tier can test whole-batch uniformity
    before consuming, and drain to scalar lanes on divergence without
    double-counting.
    """

    __slots__ = ("_ranks",)

    #: what the engines charge per side of a skipped probe
    check_cost = CHECK_COST

    def __init__(self) -> None:
        self._ranks: dict[int, dict[int, SensorControl]] = {}

    def controls(self, rank: int) -> dict[int, SensorControl]:
        table = self._ranks.get(rank)
        if table is None:
            table = self._ranks[rank] = {}
        return table

    def get(self, rank: int, sensor_id: int) -> SensorControl:
        table = self.controls(rank)
        ctl = table.get(sensor_id)
        if ctl is None:
            ctl = table[sensor_id] = SensorControl()
        return ctl

    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    # -- engine consult (hot path) ------------------------------------------

    def peek(self, rank: int, sensor_id: int) -> bool:
        """Would the next execution of this sensor record?  No side effects."""
        ctl = self._ranks.get(rank, {}).get(sensor_id)
        if ctl is None or ctl.state == ENABLED:
            return True
        if ctl.state == SUSPENDED:
            return False
        return ctl.phase + 1 >= ctl.sample_period

    def decide(self, rank: int, sensor_id: int) -> bool:
        """Consume one execution; True = pay the full probe and record."""
        ctl = self.get(rank, sensor_id)
        ctl.executions += 1
        state = ctl.state
        if state == ENABLED:
            ctl.kept += 1
            return True
        if state == SUSPENDED:
            ctl.suppressed += 1
            ctl.pending_skips += 1
            return False
        ctl.phase += 1
        if ctl.phase >= ctl.sample_period:
            ctl.phase = 0
            ctl.kept += 1
            return True
        ctl.sampled_out += 1
        ctl.pending_skips += 1
        return False

    def peek_skip(self, rank: int, sensor_id: int) -> bool:
        """Is the open tick for this sensor a skipped one?  No side effects."""
        ctl = self._ranks.get(rank, {}).get(sensor_id)
        return ctl is not None and ctl.pending_skips > 0

    def pop_skip(self, rank: int, sensor_id: int) -> bool:
        """Tock side: consume a pending skipped tick if one is open."""
        ctl = self._ranks.get(rank, {}).get(sensor_id)
        if ctl is not None and ctl.pending_skips > 0:
            ctl.pending_skips -= 1
            return True
        return False


@dataclass(slots=True)
class GovernorConfig:
    """Tuning knobs of the overhead governor."""

    #: probe self-cost may use at most this fraction of elapsed virtual time
    overhead_budget: float = 0.02
    #: budget evaluation cadence; ``None`` means the detector's slice length
    eval_period_us: float | None = None
    #: keep 1-in-this-many executions in the ``sampled`` state
    sample_period: int = 8
    #: consecutive over-budget evaluations before a demotion round
    demote_patience: int = 2
    #: consecutive comfortably-under-budget evaluations before a promotion
    promote_patience: int = 3

    def __post_init__(self) -> None:
        if not (0.0 < self.overhead_budget < 1.0):
            raise ValueError("overhead_budget must be in (0, 1)")
        if self.sample_period < 2:
            raise ValueError("sample_period must be >= 2")


class OverheadGovernor:
    """Per-rank budget control loop over a :class:`SensorControlTable`.

    One instance serves every rank of a run (rank state is partitioned
    inside the table and the eval bookkeeping).  The runtime hooks call
    :meth:`on_record` per kept record and :meth:`on_variance` per
    detector event, the detector calls :meth:`on_shutoff` per §5.3
    shutoff; the engines consult :attr:`table` per probe execution.
    """

    def __init__(
        self,
        config: GovernorConfig | None = None,
        *,
        estimates: dict[int, object] | None = None,
        probe_cost: float = 0.5,
        detector_config=None,
        ranks_per_node: int | None = None,
        metrics=None,
        obs=None,
    ) -> None:
        self.config = config or GovernorConfig()
        #: budget evaluation cadence: the config's, else the detector's slice
        self.eval_period_us = self.config.eval_period_us
        if self.eval_period_us is None:
            self.eval_period_us = (detector_config or DetectorConfig()).slice_us
        self.table = SensorControlTable()
        #: virtual µs per kept record (tick + tock, work units ≈ µs)
        self.record_cost_us = 2.0 * probe_cost
        #: virtual µs per skipped execution (two table checks)
        self.skip_cost_us = 2.0 * CHECK_COST
        self.estimates = estimates or {}
        self.metrics = metrics
        self.obs = obs
        #: node topology for sibling fan-out (None = every rank its own node)
        self.ranks_per_node = ranks_per_node
        #: per-rank decision tallies (CLI / report surface)
        self.decisions: dict[int, dict[str, int]] = {}
        self._last_eval: dict[int, float] = {}
        self._over: dict[int, int] = {}
        self._under: dict[int, int] = {}
        #: per-rank timestamps of recent severe events (promotion confirm)
        self._severe: dict[int, list[float]] = {}
        #: per-rank active probation: (deadline, saved {sid: (state, period)})
        self._probation: dict[int, tuple[float, dict[int, tuple[str, int]]]] = {}
        #: per-rank (kept, skipped) totals at the last evaluation
        self._snapshot: dict[int, tuple[int, int]] = {}
        self.evaluations = 0

    # -- wiring --------------------------------------------------------------

    def on_shutoff(self, rank: int, sensor_id: int) -> None:
        """The detector's §5.3 rule shut ``sensor_id`` off on ``rank``:
        record the decision and suspend it in the engine (pinned — never
        re-promoted)."""
        self._tally(rank, "suspend")
        self._count("governor.suspend")
        ctl = self.table.get(rank, sensor_id)
        ctl.state = SUSPENDED
        ctl.pinned = True

    # -- runtime signals -----------------------------------------------------

    def on_record(self, rank: int, now: float) -> None:
        """One kept record on ``rank`` at virtual time ``now``."""
        probation = self._probation.get(rank)
        if probation is not None:
            if now <= probation[0]:
                return  # full-rate probe window; budget evals paused
            self._probation.pop(rank, None)
            self._restore(rank, probation[1])
            self._resync(rank, now)
            return
        last = self._last_eval.get(rank)
        if last is None:
            self._last_eval[rank] = now
            return
        if now - last >= self.eval_period_us:
            self.evaluate(rank, now)

    def on_variance(
        self,
        rank: int,
        now: float,
        performance: float = 0.0,
        sensor_type=None,
    ) -> None:
        """A sensor on ``rank`` reported variance: restore full telemetry
        on the rank *and its node siblings* — variance is exactly when
        telemetry must not be throttled, and a contended node slows every
        rank on it, including the ones whose sampled probes happened to
        skip the episode's onset.

        ``performance`` is the event's normalized performance (worst of
        the batch); only events below ``PROMOTE_SEVERITY`` act, so
        routine jitter events cannot defeat the budget loop, and the
        severe ones must recur within ``PROMOTE_CONFIRM_WINDOW_US`` —
        machine-noise spikes are deep but isolated, genuine fault
        episodes produce a severe event per slice.  The default
        ``performance=0.0`` is a programmatic maximal-severity signal
        that bypasses every gate, including the sensor-type filter.
        ``sensor_type`` is the reporting sensor's type; network-sensor
        events are ignored: communication snippets measure wait time, and
        wait time absorbs *other* ranks' noise (the Fig. 18/19 phenomenon —
        the profile misleads toward MPI).  A rank whose neighbour runs a
        data-dependent loop sees huge wait variance on a perfectly quiet
        machine; letting those events re-promote would keep the whole
        node at full rate forever.
        """
        if performance > 0.0 and getattr(sensor_type, "name", "") == "NETWORK":
            return
        if performance >= PROMOTE_SEVERITY:
            return
        if 0.0 < performance < PROMOTE_FLOOR:
            return  # isolated-outlier artifact, not a systemic slowdown
        if performance > 0.0:
            recent = [
                t for t in self._severe.get(rank, [])
                if now - t <= PROMOTE_CONFIRM_WINDOW_US
            ]
            recent.append(now)
            self._severe[rank] = recent
            if len(recent) < PROMOTE_CONFIRM:
                for sibling in self._siblings(rank):
                    self._begin_probation(sibling, now)
                return
        for sibling in self._siblings(rank):
            self._promote_all(sibling)

    def _siblings(self, rank: int) -> list[int]:
        """Ranks sharing ``rank``'s node (always includes ``rank``)."""
        rpn = self.ranks_per_node
        if rpn is None or rpn <= 0:
            return [rank]
        node = rank // rpn
        sibs = [r for r in self.table.ranks() if r // rpn == node]
        if rank not in sibs:
            sibs.append(rank)
        return sibs

    def _promote_all(self, rank: int) -> None:
        """Confirmed variance: every demoted (non-pinned) sensor of
        ``rank`` back to full rate, ending any probation permanently."""
        probation = self._probation.pop(rank, None)
        promoted = len(probation[1]) if probation is not None else 0
        for ctl in self.table.controls(rank).values():
            if ctl.pinned or ctl.state == ENABLED:
                continue
            ctl.state = ENABLED
            ctl.phase = 0
            ctl.sample_period = 1
            promoted += 1
        if promoted:
            self._tally(rank, "promote", promoted)
            self._count("governor.promote", promoted)
        # A severe event holds off demotion even when nothing needed
        # promoting — mid-episode the rank must stay at full fidelity.
        self._over[rank] = 0
        self._under[rank] = 0

    def _begin_probation(self, rank: int, now: float) -> None:
        """Full-rate probe window after an unconfirmed severe event."""
        deadline = now + PROBATION_US
        entry = self._probation.get(rank)
        if entry is not None:
            self._probation[rank] = (deadline, entry[1])
            return
        saved: dict[int, tuple[str, int]] = {}
        for sid, ctl in self.table.controls(rank).items():
            if ctl.pinned or ctl.state == ENABLED:
                continue
            saved[sid] = (ctl.state, ctl.sample_period)
            ctl.state = ENABLED
            ctl.sample_period = 1
            ctl.phase = 0
        if not saved:
            return
        self._probation[rank] = (deadline, saved)
        self._tally(rank, "resample")
        self._count("governor.resample")

    def _stagger(self, rank: int, sensor_id: int, period: int) -> int:
        """Deterministic sampling-phase offset for a demoted sensor.

        Lockstep workloads (compute + allreduce per iteration) execute
        every sensor in the same global iteration on every rank.  If all
        sensors were demoted with the same phase, entire iterations would
        carry no probe at all — and a short episode could fall entirely
        between kept records on every sensor at once.  Staggering by
        *sensor* spreads coverage across consecutive iterations.  The
        offset is deliberately **uniform across ranks**: skewing ranks
        against each other would put some rank's full probe cost into
        every iteration, and the collectives would couple that skew into
        the critical path on every iteration — the unsynchronized-noise
        amplification the paper's Fig. 18/19 victims suffer.  Synchronized
        sampling keeps 3 of every 4 iterations probe-free on *every* rank
        simultaneously, so the savings survive the allreduce.
        """
        del rank  # uniform across ranks by design (see above)
        return sensor_id % period

    def _restore(self, rank: int, saved: dict[int, tuple[str, int]]) -> None:
        """Probation lapsed without confirmation: back to saved sampling."""
        controls = self.table.controls(rank)
        for sid, (state, period) in saved.items():
            ctl = controls.get(sid)
            if ctl is None or ctl.pinned or ctl.state != ENABLED:
                continue
            ctl.state = state
            ctl.sample_period = period
            ctl.phase = self._stagger(rank, sid, period) if state == SAMPLED else 0

    def _resync(self, rank: int, now: float) -> None:
        """Restart budget accounting at ``now`` — probation spend is the
        price of checking, not evidence for the next demotion round."""
        kept = skipped = 0
        for ctl in self.table.controls(rank).values():
            kept += ctl.kept
            skipped += ctl.sampled_out + ctl.suppressed
        self._snapshot[rank] = (kept, skipped)
        self._last_eval[rank] = now

    # -- the budget loop -----------------------------------------------------

    def evaluate(self, rank: int, now: float) -> None:
        """One slice-boundary budget evaluation for ``rank``."""
        last = self._last_eval.get(rank, 0.0)
        elapsed = now - last
        if elapsed <= 0.0:
            return
        self.evaluations += 1
        self._last_eval[rank] = now
        kept = skipped = 0
        for ctl in self.table.controls(rank).values():
            kept += ctl.kept
            skipped += ctl.sampled_out + ctl.suppressed
        kept0, skipped0 = self._snapshot.get(rank, (0, 0))
        self._snapshot[rank] = (kept, skipped)
        spent_us = (kept - kept0) * self.record_cost_us + (
            skipped - skipped0
        ) * self.skip_cost_us
        frac = spent_us / elapsed
        budget = self.config.overhead_budget
        if frac > budget:
            self._under[rank] = 0
            strikes = self._over.get(rank, 0) + 1
            if strikes >= self.config.demote_patience:
                self._over[rank] = 0
                self._demote(rank, frac)
            else:
                self._over[rank] = strikes
        elif frac <= budget * PROMOTE_HEADROOM:
            self._over[rank] = 0
            strikes = self._under.get(rank, 0) + 1
            if strikes >= self.config.promote_patience:
                self._under[rank] = 0
                self._promote(rank)
            else:
                self._under[rank] = strikes
        else:
            self._over[rank] = 0
            self._under[rank] = 0

    def _info_key(self, sensor_id: int):
        """Demotion order: cheapest information first.

        Small estimated work → the snippet carries little signal per record
        and its probe overhead is relatively largest; high estimated call
        frequency → many redundant records per unit of information.  Unknown
        estimates sort last (conservative: keep what we cannot judge).
        """
        est = self.estimates.get(sensor_id)
        work = getattr(est, "est_work", None) if est is not None else None
        freq = getattr(est, "est_calls", None) if est is not None else None
        return (
            work if work is not None else float("inf"),
            -(freq if freq is not None else 0.0),
            sensor_id,
        )

    def _demote(self, rank: int, frac: float) -> None:
        """Step the cheapest-information sensors down until the projected
        spend fits the budget (at most one state step per sensor per round)."""
        controls = self.table.controls(rank)
        order = sorted(
            (sid for sid, c in controls.items() if c.state != SUSPENDED),
            key=self._info_key,
        )
        budget = self.config.overhead_budget
        projected = frac
        for sid in order:
            if projected <= budget:
                break
            ctl = controls[sid]
            total = max(1, sum(c.kept for c in controls.values()))
            share = frac * ctl.kept / total
            if ctl.state == ENABLED:
                ctl.state = SAMPLED
                ctl.sample_period = self.config.sample_period
                ctl.phase = self._stagger(rank, sid, ctl.sample_period)
                projected -= share * (1.0 - 1.0 / ctl.sample_period)
                self._tally(rank, "demote")
                self._tally(rank, "resample")
                self._count("governor.demote")
                self._count("governor.resample")
            else:  # SAMPLED -> SUSPENDED
                ctl.state = SUSPENDED
                projected -= share
                self._tally(rank, "demote")
                self._tally(rank, "suspend")
                self._count("governor.demote")
                self._count("governor.suspend")

    def _promote(self, rank: int) -> None:
        """Step the most informative demoted sensor one state up."""
        controls = self.table.controls(rank)
        candidates = sorted(
            (sid for sid, c in controls.items()
             if c.state != ENABLED and not c.pinned),
            key=self._info_key,
            reverse=True,
        )
        if not candidates:
            return
        ctl = controls[candidates[0]]
        if ctl.state == SUSPENDED:
            ctl.state = SAMPLED
            ctl.sample_period = self.config.sample_period
            ctl.phase = self._stagger(rank, candidates[0], ctl.sample_period)
            self._tally(rank, "promote")
            self._tally(rank, "resample")
            self._count("governor.promote")
            self._count("governor.resample")
        else:
            ctl.state = ENABLED
            ctl.sample_period = 1
            ctl.phase = 0
            self._tally(rank, "promote")
            self._count("governor.promote")

    # -- bookkeeping ---------------------------------------------------------

    def _tally(self, rank: int, kind: str, n: int = 1) -> None:
        tally = self.decisions.get(rank)
        if tally is None:
            tally = self.decisions[rank] = dict.fromkeys(DECISIONS, 0)
        tally[kind] += n

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def totals(self) -> dict[str, int]:
        """Decision counts summed over every rank."""
        out = dict.fromkeys(DECISIONS, 0)
        for tally in self.decisions.values():
            for kind in DECISIONS:
                out[kind] += tally[kind]
        return out

    def coverage(self) -> float:
        """Fraction of probe executions represented in analysis output.

        Kept + sampled-out executions count as covered (sampled-out records
        are statistically represented by their kept 1-in-N siblings);
        suppressed executions are the uncovered mass.  1.0 when no probe
        ever consulted the table.
        """
        executions = covered = 0
        for rank_tables in self.table._ranks.values():
            for ctl in rank_tables.values():
                executions += ctl.executions
                covered += ctl.covered()
        return covered / executions if executions else 1.0

    def suspended_sensors(self) -> int:
        """(rank, sensor) pairs currently suspended by the governor."""
        return sum(
            1
            for rank_tables in self.table._ranks.values()
            for ctl in rank_tables.values()
            if ctl.state == SUSPENDED
        )

    def summary(self) -> str:
        totals = self.totals()
        parts = " ".join(f"{kind}={totals[kind]}" for kind in DECISIONS)
        line = (
            f"governor budget={self.config.overhead_budget:.1%} "
            f"evals={self.evaluations} {parts} coverage={self.coverage():.3f}"
        )
        if self.obs is not None and getattr(self.obs, "enabled", False):
            line += f" obs_self_cost={self.obs.self_cost_s():.4f}s"
        return line

    def format_tally(self) -> str:
        """Per-rank decision table (the CLI's ``--obs-summary`` mirror of
        the ``identify --explain`` fusability tally)."""
        lines = ["governor decisions (per rank):"]
        for rank in sorted(self.decisions):
            tally = self.decisions[rank]
            if not any(tally.values()):
                continue
            detail = " ".join(f"{kind}={tally[kind]}" for kind in DECISIONS)
            lines.append(f"   rank {rank:>4d}: {detail}")
        totals = self.totals()
        detail = " ".join(f"{kind}={totals[kind]}" for kind in DECISIONS)
        lines.append(f"   total     : {detail}  coverage={self.coverage():.3f}")
        return "\n".join(lines)
