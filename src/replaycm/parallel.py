"""Fork-and-pipe map: a pure function over a list, computed by this process
and forked children on the CPUs it may use, with every result handed back to
this process.

With ``processes`` workers, worker ``k`` computes items ``k``, ``k +
processes``, ...; worker 0 is this process, the others forked children.  Each
child sends its results through its own pipe as length-prefixed pickles, and
this process reads whatever has arrived between computing its own items.  It
is the only process that acts on a result, so files, counters and
instrumentation all stay in one process, and no helper thread is started, so
it keeps one malloc arena.

Where ``os.fork`` is missing, in a process that already runs other threads
(a fork copies only the calling one), at one usable CPU or for one item, no
child is forked and the calling process computes every item.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback
from typing import Callable, Iterator, Sequence

# Room for several results (a corpus trial is 154 kB), so that a child does
# not wait while this process computes an item.  Linux caps an unprivileged
# pipe at /proc/sys/fs/pipe-max-size, 1 MiB by default; a refused resize
# keeps the 64 KiB default, which is slower but correct.
PIPE_BYTES = 1 << 20
_HEADER = struct.Struct("<Q")


class ChildTraceback(Exception):
    """The formatted traceback of an error raised in a child, attached as the
    cause of the error the parent re-raises."""


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them); 1 where the
    affinity mask cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn: Callable, items: Sequence, processes: int) -> Iterator[tuple[int, object]]:
    """Yield ``(index, fn(items[index]))`` for every item, in completion order,
    computed by this process and ``processes - 1`` forked children.

    An error in a child is raised here as the same exception, its child
    traceback attached as the cause, and a child that dies without reporting
    raises ``ChildProcessError``.  Every child is reaped before the generator
    finishes, fails or is closed; close it (as ``contextlib.closing`` does)
    when abandoning it early.
    """
    processes = min(processes, len(items))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        processes = 1
    running: dict[int, int] = {}  # child pids by result pipe, until they are reaped
    poller = select.poll() if processes > 1 else None  # POSIX only, like os.fork
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for worker in range(1, processes):
            results, pid = _spawn(fn, items, worker, processes, running)
            running[results] = pid
            poller.register(results, select.POLLIN)
        for index in range(0, len(items), processes):
            yield from _drain(running, poller, wait=False)
            yield index, fn(items[index])
        while running:
            yield from _drain(running, poller, wait=True)
    finally:
        for results, pid in running.items():
            os.close(results)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _spawn(fn: Callable, items: Sequence, first: int, step: int,
           others) -> tuple[int, int]:
    """Fork a child computing items ``first``, ``first + step``, ...; return
    the read end of its result pipe and its pid."""
    results_read, results_write = os.pipe()
    with contextlib.suppress(ImportError, OSError, AttributeError):
        import fcntl
        fcntl.fcntl(results_write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    try:
        pid = os.fork()
    except OSError:
        os.close(results_read)
        os.close(results_write)
        raise
    if pid == 0:
        for fd in (results_read, *others):
            os.close(fd)
        _child(fn, items, first, step, results_write)
    os.close(results_write)
    return results_read, pid


def _child(fn: Callable, items: Sequence, first: int, step: int, results: int) -> None:
    """Compute ``fn`` of items ``first``, ``first + step``, ... and send each
    result.  Never returns."""
    code = 1
    try:
        for index in range(first, len(items), step):
            try:
                frame = (index, True, fn(items[index]))
            except Exception as exc:
                _send(results, (index, False, (exc, traceback.format_exc())))
                return
            _send(results, frame)
        code = 0
    finally:
        os._exit(code)


def _send(fd: int, frame: tuple) -> None:
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    data = memoryview(_HEADER.pack(len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


def _read_exact(fd: int, n: int) -> bytearray | None:
    """``n`` bytes from ``fd``, waiting for them; None at end of file before
    the first byte."""
    buffer = bytearray(n)
    view = memoryview(buffer)
    got = 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            if got == 0:
                return None
            raise ChildProcessError(f"a pipe ended inside a frame ({got} of {n} bytes)")
        got += k
    return buffer


def _drain(running: dict[int, int], poller, wait: bool):
    """Yield the results that the children have sent.  With ``wait``, first
    wait until some result pipe is readable."""
    timeout = None if wait else 0
    while running:
        ready = poller.poll(timeout)
        if not ready:
            return
        for fd, _ in ready:
            header = _read_exact(fd, _HEADER.size)
            if header is None:
                pid = running.pop(fd)
                poller.unregister(fd)
                os.close(fd)
                _reap(pid)
                continue
            index, ok, value = pickle.loads(_read_exact(fd, _HEADER.unpack(header)[0]))
            if not ok:
                error, child_traceback = value
                raise error from ChildTraceback(child_traceback)
            yield index, value
        timeout = 0


def _reap(pid: int) -> None:
    """Wait for a child whose result pipe has ended; it must have exited
    with status 0."""
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"child process {pid} {how} before sending all its results")
