"""Deterministic chunked execution of search tasks.

Work is split into tasks *before* any worker starts, with boundaries that
never depend on the worker count, and reductions are either order-respecting
("first hit in task order") or associative-commutative sums, so every result
is bit-identical for any ``jobs`` value, including 1. Task i runs in process
``i % jobs``: 0 is the caller, the others children forked per call.
"""

from __future__ import annotations

import contextlib
import os

_STATE = None


def worker_state():
    return _STATE


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TaskRunner:
    """Runs task functions in the caller and in up to ``jobs - 1`` forked
    children, at most one process per usable CPU. Tasks read shared immutable
    inputs from :func:`worker_state`; children pipe back their pickled results."""

    def __init__(self, jobs: int, state):
        global _STATE
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs = min(jobs, usable_cpus())
        self._pool = jobs - 1 if jobs > 1 else None  # children forked per call
        _STATE = state

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        global _STATE
        _STATE = None

    def map(self, fn, tasks: list) -> list:
        """All results, in task order."""
        return list(self._results(fn, tasks))

    def first_hit(self, fn, tasks: list):
        """The result of the first task (in task order) returning non-None.

        Results are read in task order, so a later task that finishes first
        never changes which hit is returned; children still running are killed.
        """
        with contextlib.closing(self._results(fn, tasks)) as results:
            return next((res for res in results if res is not None), None)

    def _results(self, fn, tasks: list):
        """``fn(task)`` for each task, in task order."""
        jobs = min(self.jobs, len(tasks))
        if jobs < 2:
            yield from map(fn, tasks)
            return
        import pickle  # imported here: jobs=1 runs never need them
        import signal
        pids, pipes = [], []
        try:
            for w in range(1, jobs):
                r, wfd = os.pipe()
                pipes.append(open(r, "rb"))
                with open(wfd, "wb") as out:  # the caller closes its write end
                    if (pid := os.fork()) == 0:  # child: never returns to the caller
                        try:
                            for task in tasks[w::jobs]:
                                try:
                                    res = (True, fn(task))
                                except Exception as exc:
                                    res = (False, exc)
                                pickle.dump(res, out, pickle.HIGHEST_PROTOCOL)
                                out.flush()
                        finally:
                            os._exit(0)
                pids.append(pid)
            for i, task in enumerate(tasks):
                w = i % jobs
                if w == 0:
                    yield fn(task)
                    continue
                try:
                    ok, value = pickle.load(pipes[w - 1])
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"worker {w} exited before task {i}") from None
                if not ok:
                    raise value
                yield value
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for pipe in pipes:
                pipe.close()
