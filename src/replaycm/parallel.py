"""Long-lived forked workers: functions over lists, computed by this
process and by children forked once per scope, with every result handed back
to this process.

``workers()`` opens a scope; ``cli.main`` opens one around each command.
Inside it, ``imap(fn, items)`` forks, on the scope's first map of two or
more items, one child per further CPU this process may use.  The same
children serve every later map of the scope, and they are stopped and
reaped when the scope closes, whether it returns or raises.

With ``P`` processes, process ``k`` computes items ``k``, ``k + P``, ...;
process 0 is this one.  A map sends each child its share as one
length-prefixed pickle of ``fn`` (pickled by import path, so a module-level
function or a ``functools.partial`` of one) and its items, through the
child's task pipe.  The child sends each result back through its result
pipe, and this process reads whatever has arrived between computing its own
items.  It is the only process that acts on a result; ``fn`` itself may
write its own item's file, but what it counts in a child stays there.  No
helper thread is started, so it keeps one malloc arena.

Children are forked from this process as it is at the scope's first map, so
they run whatever a tracer or a test has patched in by then.  A map that does
not run to its end (an error in ``fn`` here or in a child, or a caller that
abandons it) stops the children; a later map forks new ones.

Outside a scope, inside another map (by ``fn``, here or in a child), where
``os.fork`` is missing, in a process that runs other threads (a fork copies
only the calling one), at one usable CPU or for fewer than two items, no
child is used and the calling process computes every item.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# Room for several results (a corpus trial is 154 kB, an EEMD member as much),
# so that a child does not wait while this process computes an item.  Linux
# caps an unprivileged pipe at /proc/sys/fs/pipe-max-size, 1 MiB by default;
# a refused resize keeps the 64 KiB default, which is slower but correct.
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


@dataclass(frozen=True)
class _Child:
    pid: int
    tasks: int  # write end of its task pipe
    results: int  # read end of its result pipe


class Workers:
    """The children of one scope: none until its first map of two or more
    items, then one per further usable CPU until ``close``."""

    def __init__(self):
        self._children: list[_Child] | None = None  # None: not forked yet
        self._poller = None
        self._busy = False  # a map is running: a map inside it runs serially

    def imap(self, fn: Callable, items: Sequence) -> Iterator[tuple[int, object]]:
        """Yield ``(index, fn(items[index]))`` for every item, in completion
        order.

        An error in a child is raised here as the same exception, its child
        traceback attached as the cause, and a child that dies raises
        ``ChildProcessError`` naming its pid.
        """
        children = self._start() if len(items) > 1 and not self._busy else []
        if not children:
            yield from _serial(fn, items)
            return
        processes = min(len(children) + 1, len(items))
        pending: dict[int, int] = {}  # results still due, by result pipe
        finished = False
        self._busy = True
        try:
            for k, child in enumerate(children[: processes - 1], start=1):
                share = [(index, items[index]) for index in range(k, len(items), processes)]
                try:
                    _send(child.tasks, (fn, share))
                except BrokenPipeError:
                    raise self._lost(child) from None
                pending[child.results] = len(share)
            for index in range(0, len(items), processes):
                yield from self._drain(pending, wait=False)
                yield index, fn(items[index])
            while pending:
                yield from self._drain(pending, wait=True)
            finished = True
        finally:
            self._busy = False
            if not finished:
                self.close()

    def close(self) -> None:
        """Stop and reap every child; a later map forks new ones."""
        children, self._children, self._poller = self._children or [], None, None
        for child in children:
            os.close(child.tasks)
            os.close(child.results)
            with contextlib.suppress(ProcessLookupError):
                os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)

    def _start(self) -> list[_Child]:
        """The children, forked on the first call; none where this process
        must compute alone."""
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return []
        if self._children is None:
            self._children, self._poller = [], select.poll()
            sys.stdout.flush()
            sys.stderr.flush()
            try:
                for _ in range(usable_cpus() - 1):
                    self._fork()
            except BaseException:
                self.close()
                raise
        return self._children

    def _fork(self) -> None:
        tasks_read, tasks_write = os.pipe()
        results_read, results_write = os.pipe()
        for fd in (tasks_write, results_write):
            with contextlib.suppress(ImportError, OSError, AttributeError):
                import fcntl
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in (tasks_read, tasks_write, results_read, results_write):
                os.close(fd)
            raise ChildProcessError(f"cannot fork a worker process: {exc}") from exc
        if pid == 0:
            for fd in (tasks_write, results_read,
                       *(fd for child in self._children for fd in (child.tasks, child.results))):
                os.close(fd)
            _serve(tasks_read, results_write)
        os.close(tasks_read)
        os.close(results_write)
        self._children.append(_Child(pid, tasks_write, results_read))
        self._poller.register(results_read, select.POLLIN)

    def _drain(self, pending: dict[int, int], wait: bool):
        """Yield the results that the children have sent.  With ``wait``,
        first wait until some result pipe is readable."""
        timeout = None if wait else 0
        while pending:
            ready = self._poller.poll(timeout)
            if not ready:
                return
            for fd, _ in ready:
                frame = _receive(fd)
                if frame is None:
                    raise self._lost(next(c for c in self._children if c.results == fd))
                index, ok, value = frame
                if not ok:
                    error, child_traceback = value
                    raise error from ChildTraceback(child_traceback)
                pending[fd] -= 1
                if not pending[fd]:
                    del pending[fd]
                yield index, value
            timeout = 0

    def _lost(self, child: _Child) -> ChildProcessError:
        """Reap a child whose pipe has ended, and the error that names it."""
        self._children.remove(child)
        self._poller.unregister(child.results)
        os.close(child.tasks)
        os.close(child.results)
        _, status = os.waitpid(child.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return ChildProcessError(f"child process {child.pid} {how} before sending all "
                                 "its results")


_scope: contextvars.ContextVar[Workers | None] = contextvars.ContextVar("workers",
                                                                        default=None)


@contextlib.contextmanager
def workers() -> Iterator[Workers]:
    """A scope whose maps share one set of children, reaped when it closes.
    Threads started inside it do not see it, so their maps run serially."""
    scope = Workers()
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)
        scope.close()


def imap(fn: Callable, items: Sequence) -> Iterator[tuple[int, object]]:
    """``Workers.imap`` of the enclosing ``workers()`` scope; outside one,
    ``(index, fn(item))`` of each item in order, computed here.  Close the
    iterator (as ``contextlib.closing`` does) when abandoning it early."""
    scope = _scope.get()
    return _serial(fn, items) if scope is None else scope.imap(fn, items)


def _serial(fn: Callable, items: Sequence) -> Iterator[tuple[int, object]]:
    for index, item in enumerate(items):
        yield index, fn(item)


def _serve(tasks: int, results: int) -> None:
    """In a child: compute the share of each map read from ``tasks`` and send
    every result, until ``tasks`` ends.  Never returns."""
    _scope.set(None)  # a map inside a share computes serially, here
    code = 1
    try:
        while (task := _receive(tasks)) is not None:
            fn, share = task
            for index, item in share:
                try:
                    frame = (index, True, fn(item))
                except Exception as exc:
                    _send(results, (index, False, (exc, traceback.format_exc())))
                    break
                _send(results, frame)
        code = 0
    finally:
        os._exit(code)


def _send(fd: int, frame: tuple) -> None:
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    data = memoryview(_HEADER.pack(len(payload)) + payload)
    while data:
        data = data[os.write(fd, data):]


def _receive(fd: int):
    """The next frame from ``fd``, unpickled; None where the pipe ends, even
    inside a frame (its writer has died)."""
    header = _read_exact(fd, _HEADER.size)
    payload = None if header is None else _read_exact(fd, _HEADER.unpack(header)[0])
    return None if payload is None else pickle.loads(payload)


def _read_exact(fd: int, n: int) -> bytearray | None:
    """``n`` bytes from ``fd``, waiting for them; None where the pipe ends
    first."""
    buffer = bytearray(n)
    view = memoryview(buffer)
    got = 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            return None
        got += k
    return buffer
