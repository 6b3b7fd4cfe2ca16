"""OS and system background-noise models (§5.1 context).

Two layers, both deterministic given the machine seed:

* **Fine-grained jitter** — per-time-slice multiplicative speed variation
  modelling cache effects, SMT interference and short OS activity.  This is
  what makes 10 µs-resolution sensor readings look chaotic (Fig. 12) while
  1000 µs averages are smooth.
* **Periodic interrupts** — the classic OS timer tick / daemon activity:
  every ``period`` µs the node loses ``duration`` µs of compute entirely.

Episode-style disturbances (contention from an injected noiser, network
congestion, a bad node) are *faults*, not noise — see
:mod:`repro.sim.faults`.

Draws are generated **chunked**: one numpy ``Generator`` produces a whole
chunk of slices (or spike milliseconds) at once and the resulting arrays
are cached.  A single scalar query and a vectorized (node, time) query
(:class:`NoiseBank`) read the *same* cached arrays, which is what makes
the lockstep tier's vectorized clocks bit-identical to the per-rank path:
there is exactly one draw per (node, slice) no matter how many ranks
observe it, in which order, or how many slices one query spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class NoiseConfig:
    """Background-noise parameters for every node of a machine."""

    #: std-dev of the per-slice lognormal speed jitter (0 disables)
    jitter_sigma: float = 0.08
    #: jitter correlation slice length (µs): speed is resampled per slice
    jitter_slice_us: float = 50.0
    #: OS interrupt period (µs); 0 disables periodic interrupts
    interrupt_period_us: float = 4000.0
    #: compute lost per interrupt (µs)
    interrupt_duration_us: float = 18.0
    #: probability per millisecond of a long daemon spike
    spike_rate_per_ms: float = 0.003
    #: daemon spike duration (µs)
    spike_duration_us: float = 300.0


#: slices drawn per jitter chunk (power of two: chunk = k >> 9, lane = k & 511)
_JITTER_CHUNK = 512
#: milliseconds drawn per spike chunk
_SPIKE_CHUNK = 256

# Noise draws are pure functions of (node seed, slice index) — there is no
# stream state — so they can be generated a chunk at a time and served from
# a cache instead of building a numpy Generator per slice.  Shared across
# NodeNoise instances: ranks co-located on a node draw identical noise and
# hit the same entries.
_JITTER_CACHE: dict[tuple[int, int, float], np.ndarray] = {}
_SPIKE_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

#: SeedSequence stream tags separating the jitter and spike draw families
_JITTER_TAG = 11
_SPIKE_TAG = 13


class NodeNoise:
    """Deterministic noise stream for one node.

    The jitter multiplier for slice ``k`` is a hash-seeded lognormal draw,
    so queries are random-access (no state to replay) and two runs over the
    same machine see identical noise.
    """

    def __init__(self, config: NoiseConfig, seed: int, node_id: int) -> None:
        self.config = config
        self._seed = np.uint64((seed * 1_000_003 + node_id) & 0xFFFFFFFF)

    def _jitter_chunk(self, chunk: int) -> np.ndarray:
        """Jitter multipliers for slices ``[chunk*512, (chunk+1)*512)``."""
        sigma = self.config.jitter_sigma
        key = (int(self._seed), chunk, sigma)
        arr = _JITTER_CACHE.get(key)
        if arr is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([int(self._seed), _JITTER_TAG, chunk])
            )
            # Lognormal centred slightly below 1: noise only ever slows.
            arr = np.exp(-np.abs(rng.normal(0.0, sigma, _JITTER_CHUNK)))
            np.minimum(arr, 1.0, out=arr)
            _JITTER_CACHE[key] = arr
        return arr

    def _spike_chunk(self, chunk: int) -> tuple[np.ndarray, np.ndarray]:
        """(probability, phase) draws for milliseconds in chunk ``chunk``."""
        key = (int(self._seed), chunk)
        draws = _SPIKE_CACHE.get(key)
        if draws is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([int(self._seed), _SPIKE_TAG, chunk])
            )
            pair = rng.random((2, _SPIKE_CHUNK))
            draws = (pair[0], pair[1])
            _SPIKE_CACHE[key] = draws
        return draws

    def speed_multiplier(self, time_us: float) -> float:
        """Instantaneous speed multiplier (<=1 mostly) at ``time_us``."""
        cfg = self.config
        mult = 1.0
        if cfg.jitter_sigma > 0:
            k = int(time_us / cfg.jitter_slice_us)
            mult *= float(self._jitter_chunk(k >> 9)[k & (_JITTER_CHUNK - 1)])
        if cfg.spike_rate_per_ms > 0:
            ms = int(time_us / 1000.0)
            p, frac = self._spike_chunk(ms // _SPIKE_CHUNK)
            i = ms % _SPIKE_CHUNK
            if p[i] < cfg.spike_rate_per_ms:
                start = ms * 1000.0 + float(frac[i]) * 1000.0
                if start <= time_us < start + cfg.spike_duration_us:
                    mult *= 0.25
        return mult

    def speed_multipliers(self, times_us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`speed_multiplier` over a float64 time array.

        Bit-identical to calling the scalar form per element (see
        :class:`NoiseBank`, which this is at one node).
        """
        return NoiseBank([self]).speed_multipliers(0, times_us)

    def interrupt_loss(self, start_us: float, end_us: float) -> float:
        """Total compute time (µs) lost to periodic interrupts in a window."""
        cfg = self.config
        if cfg.interrupt_period_us <= 0 or end_us <= start_us:
            return 0.0
        first = int(start_us // cfg.interrupt_period_us) + 1
        last = int(end_us // cfg.interrupt_period_us)
        n = max(0, last - first + 1)
        return n * cfg.interrupt_duration_us

    def interrupt_losses(self, start_us: np.ndarray, end_us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`interrupt_loss` over parallel window arrays."""
        cfg = self.config
        if cfg.interrupt_period_us <= 0:
            return np.zeros(len(start_us))
        first = np.floor_divide(start_us, cfg.interrupt_period_us).astype(np.int64) + 1
        last = np.floor_divide(end_us, cfg.interrupt_period_us).astype(np.int64)
        n = np.maximum(0, last - first + 1)
        loss = n * cfg.interrupt_duration_us
        loss[end_us <= start_us] = 0.0
        return loss


class NoiseBank:
    """Vectorized draws for several nodes at once.

    :meth:`speed_multipliers` answers ``(node, time)`` queries of any shape
    with one gather per draw family.  The draws of chunks ``c0..c1`` —
    whatever the query spans — are laid side by side in a
    ``(node, slice)`` table built from the very arrays the scalar path
    caches, so an element reads the same draw whether its query crosses a
    chunk boundary or not.  Only the latest table is kept: simulated time
    moves forward, and so does the chunk range.
    """

    def __init__(self, noises) -> None:
        self.noises = list(noises)
        self.config = self.noises[0].config
        self._jitter: tuple | None = None  # (c0, c1, table)
        self._spikes: tuple | None = None  # (c0, c1, probability, phase)

    def _jitter_table(self, c0: int, c1: int) -> np.ndarray:
        held = self._jitter
        if held is None or held[:2] != (c0, c1):
            held = self._jitter = (c0, c1, np.stack([
                np.concatenate([n._jitter_chunk(c) for c in range(c0, c1 + 1)])
                for n in self.noises
            ]))
        return held[2]

    def _spike_tables(self, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
        held = self._spikes
        if held is None or held[:2] != (c0, c1):
            probability, phase = (
                np.stack([
                    np.concatenate([n._spike_chunk(c)[i] for c in range(c0, c1 + 1)])
                    for n in self.noises
                ])
                for i in (0, 1)
            )
            held = self._spikes = (c0, c1, probability, phase)
        return held[2], held[3]

    def speed_multipliers(self, node, times_us: np.ndarray) -> np.ndarray:
        """:meth:`NodeNoise.speed_multiplier` of ``noises[node]`` at each time.

        ``node`` broadcasts against ``times_us``.  Per element the float
        operations are the scalar form's: ``1.0 * jitter``, then ``* 0.25``
        inside a spike.
        """
        cfg = self.config
        if cfg.jitter_sigma > 0:
            k = (times_us / cfg.jitter_slice_us).astype(np.int64)
            c0 = int(k.min()) >> 9
            table = self._jitter_table(c0, int(k.max()) >> 9)
            # a gather copies, so the spike pass never touches the cache
            mult = table[node, k - c0 * _JITTER_CHUNK]
        else:
            mult = np.ones(np.shape(times_us))
        if cfg.spike_rate_per_ms > 0:
            ms = (times_us / 1000.0).astype(np.int64)
            c0 = int(ms.min()) // _SPIKE_CHUNK
            p, frac = self._spike_tables(c0, int(ms.max()) // _SPIKE_CHUNK)
            at = ms - c0 * _SPIKE_CHUNK
            candidate = p[node, at] < cfg.spike_rate_per_ms
            if candidate.any():
                start = ms * 1000.0 + frac[node, at] * 1000.0
                active = (
                    candidate
                    & (start <= times_us)
                    & (times_us < start + cfg.spike_duration_us)
                )
                mult[active] *= 0.25
        return mult
