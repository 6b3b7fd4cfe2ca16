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
are cached.  A scalar query and a vectorized one read the *same* cached
arrays: there is exactly one draw per (node, slice) no matter how many
ranks observe it, in which order, or how many slices one query spans.
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

# Draws by (node seed, chunk), shared across NodeNoise instances: ranks
# co-located on a node draw identical noise and hit the same entries.
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
        """:meth:`speed_multiplier` at each time, bit for bit: a gather from
        the cached chunks the query spans, then ``* 0.25`` inside a spike."""
        cfg = self.config
        mult = np.ones(np.shape(times_us))
        if cfg.jitter_sigma > 0:
            k = (times_us / cfg.jitter_slice_us).astype(np.int64)
            c0, c1 = int(k.min()) >> 9, int(k.max()) >> 9
            draws = np.concatenate([self._jitter_chunk(c) for c in range(c0, c1 + 1)])
            mult = draws[k - c0 * _JITTER_CHUNK]  # a gather copies the cache
        if cfg.spike_rate_per_ms > 0:
            ms = (times_us / 1000.0).astype(np.int64)
            c0, c1 = int(ms.min()) // _SPIKE_CHUNK, int(ms.max()) // _SPIKE_CHUNK
            p, phase = map(np.concatenate, zip(*map(self._spike_chunk, range(c0, c1 + 1))))
            at = ms - c0 * _SPIKE_CHUNK
            start = ms * 1000.0 + phase[at] * 1000.0
            active = (p[at] < cfg.spike_rate_per_ms) & (start <= times_us)
            mult[active & (times_us < start + cfg.spike_duration_us)] *= 0.25
        return mult

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
