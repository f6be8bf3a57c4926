"""Tests for the thread pool that runs the separation and iSTFT tasks."""

import itertools
import os
import sys
import threading
import time

import pytest

from asyncsep import _pool


def _run_bounded(fn, timeout=60.0):
    """Run fn() on a thread; fail if it does not finish within timeout."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # handed to the test thread
            box["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "pool did not finish"
    if "error" in box:
        raise box["error"]
    return box.get("result")


def test_every_task_runs_once_on_more_workers_than_cores(monkeypatch):
    n_tasks, n_workers = 2000, 2 * _pool.worker_count() + 3
    monkeypatch.setattr(_pool, "worker_count", lambda: n_workers)
    seen = [[] for _ in range(n_workers)]
    workspaces = itertools.count()  # workspace i is the number i
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_bounded(lambda: _pool.run(
            range(n_tasks), lambda task, ws: seen[ws].append(task),
            workspaces.__next__))
    finally:
        sys.setswitchinterval(interval)
    done = sorted(task for per_worker in seen for task in per_worker)
    assert done == list(range(n_tasks))
    # each workspace is used by one thread, which takes tasks in order
    assert all(per == sorted(per) for per in seen)
    assert next(workspaces) == n_workers


def test_no_tasks_starts_nothing():
    _pool.run([], lambda task, ws: pytest.fail("ran a task"),
              lambda: pytest.fail("built a workspace"))


def test_error_is_raised_after_every_thread_finishes(monkeypatch):
    monkeypatch.setattr(_pool, "worker_count", lambda: 2)
    finished = threading.Event()

    def work(task, ws):
        if task == 0:
            time.sleep(0.2)
            finished.set()
        elif task == 1:
            raise ZeroDivisionError("task 1")

    with pytest.raises(ZeroDivisionError, match="task 1"):
        _run_bounded(lambda: _pool.run(range(50), work, lambda: None))
    assert finished.is_set()


def test_worker_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _pool.worker_count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_earliest_failed_task_is_raised(monkeypatch, workers):
    # task 7 fails at once, task 3 after it; every task before a failed
    # one has started, so task 3's error is raised whatever the count
    def work(task, ws):
        if task == 3:
            time.sleep(0.1)
            raise KeyError("task 3")
        if task == 7:
            raise ZeroDivisionError("task 7")

    monkeypatch.setattr(_pool, "worker_count", lambda: workers)
    with pytest.raises(KeyError, match="task 3"):
        _run_bounded(lambda: _pool.run(range(50), work, lambda: None))
