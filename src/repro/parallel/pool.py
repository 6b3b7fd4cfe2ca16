"""Deterministic OS-process worker pool for the execution fabric.

Tasks are assigned round-robin by index — task *i* always runs on
worker ``i % n_workers`` — so a run's work placement is a pure function
of the task list, never of scheduling jitter.  Results come back tagged
with their task index and are returned in task order, which makes the
pool transparent to any order-invariant (or order-restoring) consumer:
``run(tasks)`` with 4 workers returns exactly what 1 worker returns.

Crash recovery is spool-replay: the parent keeps every dispatched task
until its result lands.  When a worker dies (EOF on its connection or a
broken pipe), the parent restarts the process and replays that worker's
unfinished tasks *in their original dispatch order* — tasks are
deterministic functions, so a replayed task reproduces the lost result
and the effect is exactly-once per task index.  ``parallel.worker_restart``
counts every such respawn; a worker that keeps dying exhausts
``max_restarts`` and fails the run loudly.

The parent↔worker hop speaks the :mod:`repro.parallel.wire` framed
protocol over an ``AF_UNIX`` socket pair; task payloads and results are
pickled frames, and the callable itself must be a module-level function
(pickled by reference) so a respawned worker can always re-import it.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.obs import NULL_OBS, Obs
from repro.parallel.wire import (
    FrameConn,
    PeerDied,
    T_ERROR,
    T_RESULT,
    T_SHUTDOWN,
    T_TASK,
    pack_obj,
    socket_pair,
    unpack_obj,
)


def _pool_child_main(conn: FrameConn, fn: Callable) -> None:  # pragma: no cover
    """Worker loop: execute TASK frames until SHUTDOWN or parent death.

    Runs only in forked children, so parent-side coverage cannot see it;
    every branch is exercised through the pool tests' real subprocesses.
    """
    while True:
        try:
            ftype, payload = conn.recv()
        except PeerDied:
            os._exit(0)
        if ftype == T_SHUTDOWN:
            conn.close()
            os._exit(0)
        if ftype != T_TASK:
            os._exit(1)
        generation, index, task = unpack_obj(payload)
        try:
            result = fn(task)
        except BaseException:
            conn.send(T_ERROR, pack_obj((generation, index, traceback.format_exc())))
            continue
        conn.send(T_RESULT, pack_obj((generation, index, result)))


@dataclass(slots=True)
class _Worker:
    slot: int
    process: multiprocessing.process.BaseProcess
    conn: FrameConn
    #: dispatched-but-unfinished (index, payload-bytes), in dispatch order —
    #: the replay spool a restart re-sends
    outstanding: list = field(default_factory=list)
    restarts: int = 0

    @property
    def pid(self) -> int:
        return self.process.pid


class WorkerPool:
    """``n_workers`` persistent OS-process workers running one function.

    ``fn`` must be a module-level callable taking one picklable payload
    and returning a picklable result.  Use as a context manager or call
    :meth:`close` explicitly.
    """

    def __init__(
        self,
        n_workers: int,
        fn: Callable,
        *,
        obs: Obs | None = None,
        max_restarts: int = 2,
    ) -> None:
        if n_workers < 1:
            raise ReproError(f"need at least one worker (got {n_workers})")
        self.n_workers = n_workers
        self.fn = fn
        self.obs = obs or NULL_OBS
        self.max_restarts = max_restarts
        self._metrics = self.obs.metrics if self.obs.enabled else None
        self._frames = (
            self._metrics.counter("parallel.frames") if self._metrics is not None else None
        )
        self._ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self._workers: list[_Worker] = [self._spawn(slot) for slot in range(n_workers)]
        self._closed = False
        #: run generation — results are tagged with it so frames from an
        #: aborted run (a task error raises mid-collection) are dropped
        #: instead of polluting the next run's result table
        self._generation = 0

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent, child = socket_pair(frames=self._frames)
        process = self._ctx.Process(
            target=_pool_child_main, args=(child, self.fn), daemon=True
        )
        process.start()
        child.close()
        return _Worker(slot=slot, process=process, conn=parent)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(T_SHUTDOWN)
            except PeerDied:
                pass
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)

    def worker_pids(self) -> list[int]:
        """Live worker PIDs by slot (test/diagnostic surface)."""
        return [w.pid for w in self._workers]

    # -- crash recovery ----------------------------------------------------

    def _restart(self, worker: _Worker) -> _Worker:
        """Respawn one dead worker and replay its unfinished tasks."""
        if worker.restarts >= self.max_restarts:
            raise ReproError(
                f"pool worker {worker.slot} died {worker.restarts + 1} times "
                f"(max_restarts={self.max_restarts}); giving up"
            )
        worker.conn.close()
        worker.process.join(timeout=5.0)
        fresh = self._spawn(worker.slot)
        fresh.restarts = worker.restarts + 1
        fresh.outstanding = worker.outstanding
        self._workers[worker.slot] = fresh
        if self._metrics is not None:
            self._metrics.counter("parallel.worker_restart").inc()
        for index, payload in fresh.outstanding:
            fresh.conn.send(T_TASK, payload)
        return fresh

    # -- execution ---------------------------------------------------------

    def run(self, payloads: list) -> list:
        """Run every payload; results in task order.

        Dispatch is eager (every worker gets its whole round-robin share
        up front) and collection is a ``selectors`` loop over the worker
        connections, so slow and fast workers drain independently.
        """
        if self._closed:
            raise ReproError("pool is closed")
        self._generation += 1
        generation = self._generation
        n_tasks = len(payloads)
        results: dict[int, object] = {}
        for worker in self._workers:
            # Tasks stranded by an aborted previous run are abandoned;
            # their late results are dropped by the generation check.
            worker.outstanding = []
        with self.obs.tracer.span(
            "parallel.dispatch", tasks=n_tasks, workers=self.n_workers
        ):
            for index, payload in enumerate(payloads):
                worker = self._workers[index % self.n_workers]
                frame = pack_obj((generation, index, payload))
                worker.outstanding.append((index, frame))
                try:
                    worker.conn.send(T_TASK, frame)
                except PeerDied:
                    self._restart(worker)
                if self._metrics is not None:
                    self._metrics.counter("parallel.dispatch").inc()
        while len(results) < n_tasks:
            selector = selectors.DefaultSelector()
            for worker in self._workers:
                if worker.outstanding:
                    selector.register(worker.conn.fileno(), selectors.EVENT_READ, worker)
            try:
                events = selector.select()
            finally:
                selector.close()
            for key, _mask in events:
                worker = key.data
                # One socket read can buffer several coalesced frames,
                # and the selector only sees the *socket* — drain every
                # whole frame the read buffered, or the next select()
                # would block on data that is already in userspace.
                try:
                    frames = [worker.conn.recv()]
                    while worker.conn.has_buffered_frame():
                        frames.append(worker.conn.recv())
                except PeerDied:
                    self._restart(worker)
                    continue
                for ftype, payload in frames:
                    if ftype == T_ERROR:
                        gen, index, text = unpack_obj(payload)
                        if gen != generation:
                            continue  # stale frame from an aborted run
                        raise ReproError(
                            f"pool task {index} failed in worker {worker.slot}:\n{text}"
                        )
                    if ftype != T_RESULT:
                        raise ReproError(
                            f"unexpected frame type {ftype} from pool worker"
                        )
                    gen, index, value = unpack_obj(payload)
                    if gen != generation:
                        continue  # stale frame from an aborted run
                    results[index] = value
                    worker.outstanding = [
                        item for item in worker.outstanding if item[0] != index
                    ]
                    if self._metrics is not None:
                        self._metrics.counter("parallel.results").inc()
        return [results[i] for i in range(n_tasks)]


if sys.platform == "win32":  # pragma: no cover - POSIX-only fabric
    raise ImportError("repro.parallel requires a POSIX platform (AF_UNIX sockets)")
