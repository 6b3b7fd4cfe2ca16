"""Deterministic worker pool: placement, ordering, crash recovery.

The pool's contract is that ``run(tasks)`` is a pure function of the
task list — same results, same order, for any worker count — and that a
dying worker is invisible to the caller: its unfinished tasks replay on
a fresh process with exactly-once effect per task index.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import ReproError
from repro.obs import Obs
from repro.parallel.pool import WorkerPool


def _square(x):
    return x * x


def _raise_on_13(x):
    if x == 13:
        raise ValueError("unlucky task")
    return x


def _crash_once(payload):
    """os._exit the whole worker the first time each marker is seen.

    The marker file records that the crash already happened, so the
    replayed task (fresh process, same payload) completes — modelling a
    transient worker death, the case replay must cover exactly once.
    """
    tag, marker = payload
    if tag == "crash" and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        os._exit(1)
    return tag, os.getpid()


def test_results_come_back_in_task_order():
    payloads = list(range(23))
    with WorkerPool(3, _square) as pool:
        assert pool.run(payloads) == [x * x for x in payloads]


def test_worker_counts_are_result_invariant():
    payloads = [7, 1, 5, 2, 9, 0, 4]
    outs = []
    for n in (1, 2, 4):
        with WorkerPool(n, _square) as pool:
            outs.append(pool.run(payloads))
    assert outs[0] == outs[1] == outs[2]


def test_pool_reuse_and_empty_run():
    with WorkerPool(2, _square) as pool:
        assert pool.run([]) == []
        assert pool.run([3]) == [9]
        assert pool.run([4, 5]) == [16, 25]  # same processes, next batch
        pids = pool.worker_pids()
        assert len(pids) == 2 and len(set(pids)) == 2


def test_task_exception_propagates_with_traceback():
    with WorkerPool(2, _raise_on_13) as pool:
        with pytest.raises(ReproError, match="unlucky task"):
            pool.run([1, 13, 2])
        # The pool stays usable after a task error.
        assert pool.run([4]) == [4]


def test_failed_run_leaves_no_children():
    with pytest.raises(ReproError, match="unlucky task"):
        with WorkerPool(2, _raise_on_13) as pool:
            pool.run([1, 13, 2])
    assert multiprocessing.active_children() == []


def test_crashed_worker_replays_outstanding_exactly_once(tmp_path):
    obs = Obs.create()
    marker = str(tmp_path / "crashed")
    payloads = [("a", ""), ("crash", marker), ("b", ""), ("c", ""), ("d", "")]
    with WorkerPool(2, _crash_once, obs=obs) as pool:
        results = pool.run(payloads)
    tags = [tag for tag, _pid in results]
    assert tags == ["a", "crash", "b", "c", "d"]
    # The crash really happened (marker written by the first attempt)...
    assert os.path.exists(marker)
    # ...and the respawn was counted.
    assert obs.metrics.counter("parallel.worker_restart").value == 1
    # Slot 1's tasks ("crash", "c") replayed on the fresh process; slot 0
    # tasks kept their original worker.
    pid_by_tag = dict(results)
    assert pid_by_tag["a"] == pid_by_tag["b"] == pid_by_tag["d"]
    assert pid_by_tag["crash"] == pid_by_tag["c"]
    assert pid_by_tag["crash"] != pid_by_tag["a"]


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("crash_index", range(5))
def test_crash_at_any_task_index_is_invisible(tmp_path, crash_index, n_workers):
    """Whichever task kills its worker, on however many workers: the
    results are the crash-free run's, exactly one respawn is counted and
    (``conftest.no_leaked_children``) no child outlives the pool."""
    obs = Obs.create()
    marker = str(tmp_path / "crashed")
    payloads = [("crash" if i == crash_index else f"t{i}", marker) for i in range(5)]
    with WorkerPool(n_workers, _crash_once, obs=obs) as pool:
        results = pool.run(payloads)
    assert os.path.exists(marker)
    assert [tag for tag, _pid in results] == [tag for tag, _marker in payloads]
    assert obs.metrics.counter("parallel.worker_restart").value == 1


def _always_crash(_payload):
    os._exit(1)


def test_repeated_deaths_exhaust_max_restarts():
    with WorkerPool(1, _always_crash, max_restarts=2) as pool:
        with pytest.raises(ReproError, match="died 3 times"):
            pool.run(["boom"])


def test_dispatch_counters(tmp_path):
    obs = Obs.create()
    with WorkerPool(2, _square, obs=obs) as pool:
        pool.run(list(range(5)))
    metrics = obs.metrics
    assert metrics.counter("parallel.dispatch").value == 5
    assert metrics.counter("parallel.results").value == 5
    assert metrics.counter("parallel.frames").value >= 10  # 5 sends + 5 recvs


def test_rejects_zero_workers():
    with pytest.raises(ReproError):
        WorkerPool(0, _square)
