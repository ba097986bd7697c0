"""Deterministic chunked execution of search tasks.

Work is split into tasks *before* any worker starts, with boundaries that
never depend on the worker count, and reductions are either order-respecting
("first hit in task order") or associative-commutative sums, so every result
is bit-identical for any ``jobs`` value, including 1.
"""

from __future__ import annotations

import os

_STATE = None


def _init_worker(state):
    global _STATE
    _STATE = state


def worker_state():
    return _STATE


class TaskRunner:
    """Runs task functions inline or on a pool of ``jobs`` workers, at most one per core.

    Task functions must be module-level (picklable) and read shared immutable
    inputs from :func:`worker_state`.
    """

    def __init__(self, jobs: int, state):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs = min(jobs, os.cpu_count() or 1)
        self._pool = None
        _init_worker(state)
        if jobs > 1:
            import multiprocessing as mp  # imported here: jobs=1 runs never need it

            ctx = mp.get_context("fork")
            self._pool = ctx.Pool(jobs, initializer=_init_worker, initargs=(state,))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        _init_worker(None)

    def map(self, fn, tasks: list) -> list:
        """All results, in task order."""
        if self._pool is None:
            return [fn(t) for t in tasks]
        return self._pool.map(fn, tasks, chunksize=1)

    def first_hit(self, fn, tasks: list):
        """The result of the first task (in task order) returning non-None.

        Dispatches in waves so a hit stops the scan early; the wave size only
        affects how much work is wasted, never which hit is returned.
        """
        if self._pool is None:
            for task in tasks:
                res = fn(task)
                if res is not None:
                    return res
            return None
        wave = 4 * self.jobs
        for lo in range(0, len(tasks), wave):
            for res in self._pool.map(fn, tasks[lo : lo + wave], chunksize=1):
                if res is not None:
                    return res
        return None
