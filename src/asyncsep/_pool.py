"""Independent tasks on every core this process may run on.

The separation pass and the iSTFT split their work into tasks that write
disjoint slices of buffers allocated beforehand, so the result does not
depend on how many threads run them or in which order.  numpy releases
the interpreter lock inside its loops, so threads overlap the numeric
work.  Each thread owns one workspace of scratch buffers, which the
calling thread allocates before any task starts.  The tasks allocate no
arrays of their own: a worker thread's malloc arena would keep freed
block temporaries and raise the peak resident memory.
"""

from __future__ import annotations

import os
import threading

__all__ = ["run", "worker_count"]


def worker_count() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(tasks, work, workspaces) -> None:
    """Call work(task, workspace) once for every task.

    One thread per workspace takes the tasks in list order until none is
    left; the calling thread is the first of them, so len(workspaces) - 1
    threads are started.  After a task raises, no thread takes a new
    task, and the first error is raised once every thread has finished.
    """
    tasks = list(tasks)
    if not tasks:
        return
    lock = threading.Lock()
    next_task = [0]
    errors = []

    def loop(ws):
        while True:
            with lock:
                if errors or next_task[0] == len(tasks):
                    return
                task = tasks[next_task[0]]
                next_task[0] += 1
            try:
                work(task, ws)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors.append(exc)
                return

    threads = [threading.Thread(target=loop, args=(ws,), daemon=True)
               for ws in workspaces[1:]]
    for t in threads:
        t.start()
    try:
        loop(workspaces[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
