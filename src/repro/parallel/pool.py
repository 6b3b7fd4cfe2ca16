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

The parent↔worker hop is one :mod:`multiprocessing.connection` pipe per
worker: every message is one pickled ``(kind, generation, index,
payload)`` tuple sent with ``send_bytes``, and the callable itself must
be a module-level function (pickled by reference) so a respawned worker
can always re-import it.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Callable

from repro.errors import ReproError
from repro.obs import NULL_OBS, Obs
from repro.parallel.wire import MAX_MESSAGE_BYTES, WireError, pack_obj, unpack_obj

# -- message kinds ------------------------------------------------------------
#: pool parent -> worker: one task payload
_TASK = "task"
#: pool worker -> parent: the task's return value
_RESULT = "result"
#: pool worker -> parent: the task raised; payload is the traceback text
_ERROR = "error"
#: pool parent -> worker: orderly shutdown request
_SHUTDOWN = "shutdown"


def _message(kind: str, generation: int, index: int, payload) -> bytes:
    """One pool message; over the cap is a loud error, never a send."""
    data = pack_obj((kind, generation, index, payload))
    if len(data) > MAX_MESSAGE_BYTES:
        raise WireError(
            f"pool {kind} message for task {index} is {len(data)} bytes, "
            f"over the cap of {MAX_MESSAGE_BYTES}"
        )
    return data


def _pool_child_main(conn: Connection, fn: Callable) -> None:  # pragma: no cover
    """Worker loop: execute task messages until shutdown or parent death.

    Runs only in forked children, so parent-side coverage cannot see it;
    every branch is exercised through the pool tests' real subprocesses.
    """
    while True:
        try:
            kind, generation, index, task = unpack_obj(conn.recv_bytes())
        except EOFError:
            os._exit(0)
        if kind != _TASK:
            conn.close()
            os._exit(0)
        try:
            reply = _message(_RESULT, generation, index, fn(task))
        except BaseException:
            # An over-cap result lands here too: the parent gets one
            # error naming the cap, not a dead worker to restart.
            reply = _message(_ERROR, generation, index, traceback.format_exc())
        conn.send_bytes(reply)


@dataclass(slots=True)
class _Worker:
    slot: int
    process: BaseProcess
    conn: Connection
    #: dispatched-but-unfinished (index, message-bytes), in dispatch order —
    #: the replay spool a restart re-sends
    outstanding: list = field(default_factory=list)
    restarts: int = 0


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
        self._ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self._workers = [_Worker(slot, *self._spawn()) for slot in range(n_workers)]
        self._closed = False
        #: run generation — results are tagged with it so messages from an
        #: aborted run (a task error raises mid-collection) are dropped
        #: instead of polluting the next run's result table
        self._generation = 0

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> tuple[BaseProcess, Connection]:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pool_child_main, args=(child, self.fn), daemon=True
        )
        process.start()
        child.close()
        return process, parent

    def _send(self, worker: _Worker, message: bytes) -> None:
        """Send one message; a dead worker is not this call's problem.

        Everything that must survive a death is already in
        ``worker.outstanding``, and the collection loop meets the dead
        worker's EOF, restarts it and replays — one recovery site.
        ``parallel.frames`` ticks once per message sent or received.
        """
        try:
            worker.conn.send_bytes(message)
        except ConnectionError:
            return
        self.obs.metrics.counter("parallel.frames").inc()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._send(worker, _message(_SHUTDOWN, 0, 0, None))
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)

    def worker_pids(self) -> list[int]:
        """Live worker PIDs by slot (test/diagnostic surface)."""
        return [w.process.pid for w in self._workers]

    # -- crash recovery ----------------------------------------------------

    def _restart(self, worker: _Worker) -> None:
        """Respawn one dead worker and replay its unfinished tasks."""
        if worker.restarts >= self.max_restarts:
            raise ReproError(
                f"pool worker {worker.slot} died {worker.restarts + 1} times "
                f"(max_restarts={self.max_restarts}); giving up"
            )
        worker.conn.close()
        worker.process.join(timeout=5.0)
        worker.process, worker.conn = self._spawn()
        worker.restarts += 1
        self.obs.metrics.counter("parallel.worker_restart").inc()
        for _index, message in worker.outstanding:
            self._send(worker, message)

    # -- execution ---------------------------------------------------------

    def run(self, payloads: list) -> list:
        """Run every payload; results in task order.

        Dispatch is eager (every worker gets its whole round-robin share
        up front) and collection is :func:`multiprocessing.connection.wait`
        over the workers that still owe results, so slow and fast workers
        drain independently.
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
                message = _message(_TASK, generation, index, payload)
                worker.outstanding.append((index, message))
                self._send(worker, message)
                self.obs.metrics.counter("parallel.dispatch").inc()
        while len(results) < n_tasks:
            owing = {w.conn: w for w in self._workers if w.outstanding}
            for conn in wait(owing):
                worker = owing[conn]
                try:
                    reply = conn.recv_bytes(MAX_MESSAGE_BYTES)
                except (EOFError, ConnectionError):
                    self._restart(worker)
                    continue
                except OSError as exc:
                    # recv_bytes refused a length prefix over the cap and
                    # the stream is unreadable from here on: not a restart.
                    raise WireError(
                        f"cannot read from pool worker {worker.slot} ({exc}); "
                        f"the cap is {MAX_MESSAGE_BYTES} bytes per message"
                    ) from exc
                self.obs.metrics.counter("parallel.frames").inc()
                kind, gen, index, value = unpack_obj(reply)
                if gen != generation:
                    continue  # stale message from an aborted run
                if kind == _ERROR:
                    raise ReproError(
                        f"pool task {index} failed in worker {worker.slot}:\n{value}"
                    )
                results[index] = value
                worker.outstanding = [
                    item for item in worker.outstanding if item[0] != index
                ]
                self.obs.metrics.counter("parallel.results").inc()
        return [results[i] for i in range(n_tasks)]
