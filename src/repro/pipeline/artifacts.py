"""Content-addressed artifact storage for the compilation pipeline.

Every pass output is keyed by a content hash of *(source text, pass config,
upstream artifact keys)* — see :func:`~repro.pipeline.passes.run_passes`.
The store is a bounded in-memory LRU, so repeated ``compile_and_instrument``
calls in one process (benchmark sweeps, a pool worker's jobs) reuse every
unchanged stage.

Keys are ``"<pass>:<sha256 hex>"``; the pass-name prefix lets callers
invalidate one stage (`invalidate_pass`) to force a mid-pipeline
recompute.  Because downstream keys are derived from upstream *keys*
(not object identity), a recompute that produces the same content leaves
every downstream entry valid — that is what makes targeted invalidation
cheap.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections import OrderedDict
from typing import Any


class FingerprintError(TypeError):
    """A config value has no deterministic content fingerprint.

    The pipeline reacts by disabling caching for that compilation (never by
    guessing): a wrong hash would silently serve stale artifacts.
    """


def fingerprint(value: Any) -> str:
    """A deterministic, content-based string for a config value.

    Handles scalars, enums, dataclasses, containers, and objects that either
    expose ``cache_fingerprint()`` or carry no instance state.  Raises
    :class:`FingerprintError` for anything else.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    hook = getattr(value, "cache_fingerprint", None)
    if callable(hook):
        return str(hook())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={fingerprint(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, (list, tuple)):
        items = ",".join(fingerprint(v) for v in value)
        return f"{type(value).__name__}[{items}]"
    if isinstance(value, (set, frozenset)):
        items = ",".join(sorted(fingerprint(v) for v in value))
        return f"{type(value).__name__}{{{items}}}"
    if isinstance(value, dict):
        items = ",".join(
            f"{fingerprint(k)}:{fingerprint(v)}"
            for k, v in sorted(value.items(), key=lambda kv: fingerprint(kv[0]))
        )
        return f"dict{{{items}}}"
    # Stateless strategy objects (e.g. a static rule with only class attrs)
    # are identified by their class.
    try:
        state = vars(value)
    except TypeError:
        raise FingerprintError(
            f"{type(value).__qualname__} has no deterministic fingerprint; "
            "define cache_fingerprint() on it or pass store=None"
        ) from None
    if not state:
        return type(value).__qualname__
    fields = ",".join(f"{k}={fingerprint(v)}" for k, v in sorted(state.items()))
    return f"{type(value).__qualname__}({fields})"


def digest(*parts: str) -> str:
    """SHA-256 over the parts, framed so no concatenation can collide."""
    h = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    return h.hexdigest()


class ArtifactStore:
    """Bounded in-memory LRU of pass artifacts.

    ``capacity`` bounds the number of entries (artifacts are whole ASTs /
    identification results, so the bound is a count, not bytes).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> tuple[Any, bool]:
        """``(artifact, hit)``."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key], True
        return None, False

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate_pass(self, pass_name: str) -> int:
        """Drop every artifact of one pass; returns the number removed."""
        prefix = f"{pass_name}:"
        doomed = [k for k in self._entries if k.startswith(prefix)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()
