"""``forked_map(fn, items)``: ``[fn(x) for x in items]``, in item order, across the CPUs.

W = min(len(items), CPUs in the affinity mask) forked children share the
calls when W >= 2, ``os.fork`` exists and no other thread runs (a fork
copies no thread, but may copy a lock one of them holds).  Otherwise the
calls run in process, as they do when a pipe or a fork fails (OSError),
once every child already started is killed and reaped.  Every index goes
as 4 bytes into one shared task pipe, in writes of at most PIPE_BUF bytes
(which a pipe never splits); each child reads one at a time to end of
file, so a slow call holds up only its reader, and pickles back on its
own pipe its (index, result) pairs or its exception, raised again here.
Every child is reaped before ``forked_map`` returns or raises, killed
first when the parent stops early; one that exits nonzero raises
``ChildProcessError``.  No process pool: ``multiprocessing`` and
``concurrent.futures`` would add start-up time and threads.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import threading
from collections.abc import Callable, Sequence
from typing import BinaryIO


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows)
        return os.cpu_count() or 1


def forked_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, in W forked children where the module's rules allow."""
    workers = min(len(items), _cpu_count())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    try:
        task_in, task_out = os.pipe()
    except OSError:
        return [fn(item) for item in items]
    children: list[tuple[int, BinaryIO]] = []
    replies: list[bytes] | None = None
    with open(task_in, "rb", buffering=0) as tasks, open(task_out, "wb", buffering=0) as queue:
        try:
            with contextlib.suppress(OSError):  # no reply pipe or no fork: the calls run here
                while len(children) < workers:
                    children.append(_start_worker(fn, items, (task_in, task_out)))
            if len(children) == workers:
                tasks.close()
                indices = b"".join(i.to_bytes(4, "little") for i in range(len(items)))
                with contextlib.suppress(BrokenPipeError):  # no child left: their replies say why
                    for start in range(0, len(indices), select.PIPE_BUF):
                        queue.write(indices[start : start + select.PIPE_BUF])
                queue.close()
                replies = [pipe.read() for _, pipe in children]
        finally:
            statuses = _reap(children, stop=replies is None)
    if replies is None:
        return [fn(item) for item in items]
    for status in statuses:
        if status:
            raise ChildProcessError(f"forked worker exited with status {status}")
    out = {}
    for reply in replies:
        error, results = pickle.loads(reply)
        if error is not None:
            raise error
        out.update(results)
    return [out[i] for i in range(len(items))]


def _start_worker(fn: Callable, items: Sequence, tasks: tuple[int, int]) -> tuple[int, BinaryIO]:
    """Fork a child that calls ``fn`` on the items read from ``tasks``; its pid and reply pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            try:
                os.close(tasks[1])  # else the task pipe never reaches end of file
                results = []
                while index := os.read(tasks[0], 4):
                    i = int.from_bytes(index, "little")
                    results.append((i, fn(items[i])))
                reply = None, results
            except BaseException as exc:  # raised again in the parent
                reply = exc, []
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(reply, pipe)
            os._exit(0)
        finally:
            os._exit(1)  # the reply could not be sent
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _reap(children: list[tuple[int, BinaryIO]], stop: bool) -> list[int]:
    """Wait for every child, killing it first when ``stop``; their exit statuses.  SIGINT is
    held back meanwhile, so a second interrupt cannot leave a child unreaped."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if stop:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        return statuses
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
