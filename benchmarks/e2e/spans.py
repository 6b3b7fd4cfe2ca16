"""The benchmark's own span recorder: layer boundaries timed from outside.

Nothing under ``src/`` is touched: the traced pass *wraps* each layer's
public functions (class attributes or module globals) for its duration
and restores them afterwards.  A span is ``(name, start, end, parent)``;
spans stay in memory and are written out only when the benchmark ends
(``--trace-out``).  A name's *self time* is its spans' duration minus the
part their child spans cover, so the self times of one operation add up
to the operation's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def exit(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index][2] = end
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    # -- wrapping layer entry points -------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that records a span per call."""
        original = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(index)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_cover = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_cover[index]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": n, "start_s": s, "end_s": e, "parent": p}
                    for n, s, e, p in self.spans
                ],
                fh,
            )
            fh.write("\n")
