"""Independent tasks on every core this process may run on.

Every stage with numeric work splits it into tasks on this pool:
  * scene synthesis: one task per source rendering, one per (array,
    source) image that `synthesize_scene` reads whole, one per array's
    noise sweep, and in `synthesize_scene` one per span of an array's
    recording, which reads its images' span;
  * the STFT and the iSTFT: one task per run of frames of every
    channel, about 64 channel frames (`dsp._chunk`);
  * training: one task per (devices read together, source), which
    makes both passes over that pair's frames in frame order;
  * reading a device clock (`dsp._Clock`): one task per run of output
    samples, or per device group in `asyncsep evaluate`;
  * the separation pass: one task per block of frames over every
    device, for every mode of the pass, which in `run_experiment`
    renders each device's span of its recording and, from the same
    render, the truth of the samples it finishes, and scores them; its
    thread's scratch holds one device's image planes and frames, every
    device's mixture planes, truth rows and recording rows, and the
    solves of the widest filter (`_kernels.Workspace`), with the render
    laid over the image planes and frames;
  * SDR scoring (`metrics._Scores`): one task per (device, length,
    rate) group of images.
Tasks write disjoint slices of buffers allocated beforehand, or, in
the iSTFT and the streamed separation pass, add into shared sums in
task order (`Turns`), so the result does not depend on how many threads
run them.
numpy releases the interpreter lock inside its loops, so threads overlap
the numeric work.  The caller allocates every output, and `run` has the
calling thread build each thread's workspace of scratch buffers before
any task starts.  The tasks allocate no arrays of their own: a worker
thread's malloc arena would keep freed temporaries and raise the peak
resident memory.  A block of the streamed pass reads and converts its
WAV samples in its thread's scratch (`audio.WavSource`), and the
destinations its writer hands spans to convert them in their own
(`audio.WavSink`).  (A scene source read from a WAV file is the
exception: its task reads the whole file.)
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

__all__ = ["run", "worker_count", "Turns"]


def worker_count() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run(tasks, work, scratch) -> None:
    """Call work(task, workspace) once for every task.

    The calling thread first builds min(worker_count(), len(tasks))
    workspaces, each by calling scratch(), the factory of one thread's
    scratch.  One thread per workspace then takes the tasks in list order
    until none is left; the calling thread is the first of them.  As
    every earlier task has been taken when a task starts, a task may
    wait for an earlier one without deadlock.
    After a task raises, no thread takes a new task; once every thread
    has finished, the error of the earliest failed task in list order is
    raised.  Every task before it had started, so that error does not
    depend on the number of threads.
    """
    if not isinstance(tasks, Sequence):  # a range is not copied
        tasks = list(tasks)
    if not tasks:
        return
    workspaces = [scratch() for _ in range(min(worker_count(), len(tasks)))]
    lock = threading.Lock()
    next_task = [0]
    errors = []

    def loop(ws):
        while True:
            with lock:
                if errors or next_task[0] == len(tasks):
                    return
                index = next_task[0]
                next_task[0] += 1
            try:
                work(tasks[index], ws)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors.append((index, exc))
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
        raise min(errors, key=lambda e: e[0])[1]


class Turns:
    """Sections of tasks that run one at a time, in order.

    The turn starts at 0; a task whose section covers at:to waits
    (`wait`) until the turn is at, runs its section and moves the turn on
    (`advance`).  This cannot deadlock when the sections are taken in
    order, as `run` takes its tasks.  After `abort`, which a task that
    fails calls, the tasks that wait return False.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._at = 0
        self._failed = False

    def wait(self, at: int) -> bool:
        """Wait for the turn to reach at; False once aborted."""
        with self._cond:
            self._cond.wait_for(lambda: self._failed or self._at == at)
            return not self._failed

    def advance(self, to: int) -> None:
        """Move the turn on to `to`, past the section just run."""
        with self._cond:
            self._at = to
            self._cond.notify_all()

    def abort(self) -> None:
        with self._cond:
            self._failed = True
            self._cond.notify_all()
