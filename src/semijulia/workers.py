"""Run a fixed list of tasks in forked worker processes.

A task is ``task(k)`` for k = 0 .. n-1; it returns nothing and writes its
result into its own rows of an array made by :func:`shared_array`, which
forked workers share with the parent.  The tasks' results do not depend on
where or in what order they run, so the caller gets the same arrays, bit
for bit, for any number of CPUs.
"""
from __future__ import annotations

import mmap
import os
from typing import Callable

import numpy as np

__all__ = ["run_tasks", "shared_array"]


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled array backed by an anonymous shared mapping: what a
    forked worker writes into it, the parent sees."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    buf = mmap.mmap(-1, count * dtype.itemsize)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` multiprocessing context, or None where the platform has
    none or where this process runs other threads (a fork copies their locks
    in whatever state they hold them).  Imported here, so importing the
    package does not pay for it."""
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork")


# set only inside a worker process, by the pool initializer
_worker_task: Callable[[int], None] | None = None


def _init_worker(task: Callable[[int], None]) -> None:
    global _worker_task
    _worker_task = task


def _run_in_worker(k: int) -> None:
    _worker_task(k)


def run_tasks(n: int, task: Callable[[int], None]) -> None:
    """``task(k)`` for every k in range(n), in up to one forked worker per
    usable CPU, at most one per task.  They run in turn in this process when
    there is one CPU, one task, no ``fork`` start method, or another thread
    running.  A worker inherits ``task`` by the fork, so it may be a
    closure; a task's exception is re-raised here with its type and
    attributes."""
    workers = min(n, _usable_cpus())
    fork = _fork_context() if workers > 1 else None
    if fork is None:
        for k in range(n):
            task(k)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=fork, initializer=_init_worker, initargs=(task,)
    ) as pool:
        for _ in pool.map(_run_in_worker, range(n)):
            pass
