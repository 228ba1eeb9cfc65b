import functools
import os
import sys
import threading
import time

import pytest

from replaycm import parallel
from replaycm.parallel import ChildTraceback, imap, usable_cpus, workers

PARENT = os.getpid()


def assert_no_child_left():
    """No child process of this one runs or waits to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_pipe_left_open():
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.fixture
def forks(monkeypatch):
    """The pids returned by every ``os.fork`` in this process."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


def square_with_pid(x):
    return os.getpid(), x * x


def fail_in_a_child(x):
    if os.getpid() != PARENT and x == 1:
        raise KeyError(f"item {x}")
    return x


def die_in_a_child(x, code=3):
    if os.getpid() != PARENT:
        os._exit(code)
    return x


def fail_here(x):
    if os.getpid() == PARENT:
        raise ValueError("parent side")
    time.sleep(0.05)
    return x


def slow_in_a_child(x):
    if os.getpid() != PARENT:
        time.sleep(60)
    return x


def test_usable_cpus_is_the_affinity_mask():
    assert usable_cpus() == len(os.sched_getaffinity(0)) >= 1


@pytest.mark.parametrize("processes", [1, 2, 3, 5])
def test_every_item_once_with_its_own_result(monkeypatch, forks, processes):
    cpus(monkeypatch, processes)
    with workers():
        results = list(imap(square_with_pid, list(range(23))))
    assert sorted(index for index, _ in results) == list(range(23))
    assert all(value[1] == index * index for index, value in results)
    assert {pid for _, (pid, _) in results} == {os.getpid(), *forks}
    assert len(forks) == processes - 1
    assert_no_child_left()


def test_one_fork_per_scope_and_its_children_serve_every_map(monkeypatch, forks):
    cpus(monkeypatch, 3)
    with workers():
        first = list(imap(square_with_pid, list(range(9))))
        second = list(imap(square_with_pid, list(range(5))))
        two = list(imap(square_with_pid, [4, 5]))
        assert len(forks) == 2
    assert {pid for _, (pid, _) in first} == {os.getpid(), *forks}
    assert {pid for _, (pid, _) in second} == {os.getpid(), *forks}
    assert {pid for _, (pid, _) in two} == {os.getpid(), forks[0]}
    assert sorted(value for _, (_, value) in second) == [0, 1, 4, 9, 16]
    assert_no_child_left()


def test_a_scope_that_never_maps_two_items_forks_nothing(monkeypatch, forks):
    cpus(monkeypatch, 2)
    with workers():
        assert list(imap(square_with_pid, [7])) == [(0, (os.getpid(), 49))]
        assert list(imap(square_with_pid, [])) == []
    with workers():
        pass
    assert forks == []


def test_outside_a_scope_every_item_runs_here_in_order(monkeypatch, forks):
    cpus(monkeypatch, 3)
    results = list(imap(square_with_pid, list(range(8))))
    assert results == [(i, (os.getpid(), i * i)) for i in range(8)]
    assert forks == []


@pytest.mark.parametrize("items, processes", [([7], 4), ([1, 2, 3], 1)])
def test_one_item_or_one_process_runs_here(monkeypatch, forks, items, processes):
    cpus(monkeypatch, processes)
    with workers():
        results = list(imap(square_with_pid, items))
    assert {pid for _, (pid, _) in results} == {os.getpid()}
    assert forks == []


def test_a_process_running_other_threads_does_not_fork(monkeypatch, forks):
    cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with workers():
            results = list(imap(square_with_pid, list(range(8))))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert {pid for _, (pid, _) in results} == {os.getpid()}
    assert forks == []


def test_a_thread_inside_a_scope_maps_serially(monkeypatch, forks):
    cpus(monkeypatch, 3)
    results = []
    with workers():
        thread = threading.Thread(
            target=lambda: results.extend(imap(square_with_pid, list(range(8)))))
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert results == [(i, (os.getpid(), i * i)) for i in range(8)]
    assert forks == []


def test_without_fork_every_item_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    cpus(monkeypatch, 3)
    with workers():
        results = list(imap(square_with_pid, list(range(8))))
    assert sorted(index for index, _ in results) == list(range(8))
    assert {pid for _, (pid, _) in results} == {os.getpid()}


def test_without_fcntl_the_children_use_the_default_pipe(monkeypatch, forks):
    monkeypatch.setitem(sys.modules, "fcntl", None)  # import fcntl raises ImportError
    cpus(monkeypatch, 2)
    with workers():
        results = list(imap(square_with_pid, list(range(23))))
    assert sorted(index for index, _ in results) == list(range(23))
    assert {pid for _, (pid, _) in results} == {os.getpid(), *forks}
    assert_no_child_left()


def test_a_result_larger_than_the_pipe_arrives_whole(monkeypatch):
    cpus(monkeypatch, 2)
    with workers():
        results = dict(imap(bytes, [3 << 20, 5 << 20, 1]))
    assert [len(results[i]) for i in range(3)] == [3 << 20, 5 << 20, 1]


def test_an_error_in_a_child_is_raised_here_with_its_traceback(monkeypatch, forks):
    cpus(monkeypatch, 2)
    # the child computes the odd items
    with workers():
        with pytest.raises(KeyError, match="item 1") as info:
            list(imap(fail_in_a_child, list(range(12))))
        assert isinstance(info.value.__cause__, ChildTraceback)
        assert "fail_in_a_child" in str(info.value.__cause__)
        assert_no_child_left()
        # a failed map stopped the children; the next map forks new ones
        assert sorted(index for index, _ in imap(fail_in_a_child, [0, 2, 4])) == [0, 1, 2]
        assert len(forks) == 2
    assert_no_child_left()


def test_a_child_that_dies_without_reporting_is_named(monkeypatch, forks):
    cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError) as info:
        with workers():
            list(imap(die_in_a_child, list(range(6))))
    assert str(info.value) == (f"child process {forks[0]} exited with status 3 before "
                               "sending all its results")
    assert_no_child_left()


def test_a_child_that_dies_between_maps_is_named(monkeypatch, forks):
    cpus(monkeypatch, 2)
    with workers():
        list(imap(square_with_pid, [1, 2]))
        os.kill(forks[0], 9)
        with pytest.raises(ChildProcessError,
                           match=f"^child process {forks[0]} was killed by signal 9"):
            list(imap(square_with_pid, list(range(6))))
    assert_no_child_left()


def test_an_error_here_stops_every_child(monkeypatch):
    cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="parent side"):
        with workers():
            list(imap(fail_here, list(range(40))))
    assert_no_child_left()


def test_an_abandoned_map_stops_every_child(monkeypatch):
    cpus(monkeypatch, 3)
    with workers():
        results = imap(slow_in_a_child, list(range(40)))
        assert next(results)[0] == 0  # this process computes items 0, 3, 6, ...
        started = time.monotonic()
        results.close()
        assert time.monotonic() - started < 10
        assert_no_child_left()


def test_a_scope_left_by_an_error_stops_its_children(monkeypatch, forks):
    cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="after the map"):
        with workers():
            list(imap(square_with_pid, [1, 2]))
            raise RuntimeError("after the map")
    assert len(forks) == 1
    assert_no_child_left()


def test_a_function_that_cannot_be_pickled_is_refused(monkeypatch):
    cpus(monkeypatch, 2)
    with workers():
        with pytest.raises((AttributeError, TypeError, ValueError), match="pickle"):
            list(imap(lambda x: x, [1, 2]))
    assert_no_child_left()


def test_a_partial_of_a_module_function_is_sent(monkeypatch, forks):
    cpus(monkeypatch, 2)
    with workers():
        results = dict(imap(functools.partial(pow, 2), [3, 4, 5]))
    assert results == {0: 8, 1: 16, 2: 32}
    assert len(forks) == 1


def pids_of_squares(n):
    """The pid of this process and the squares of ``range(n)``, mapped again
    as ``square_with_pid``."""
    return os.getpid(), [value for _, value in sorted(imap(square_with_pid, list(range(n))))]


def map_again_in_a_child(n):
    return pids_of_squares(n) if os.getpid() != PARENT else (os.getpid(), None)


@pytest.mark.parametrize("processes", [1, 3])
def test_a_map_inside_a_running_map_is_refused(monkeypatch, forks, processes):
    cpus(monkeypatch, processes)
    with workers():
        with pytest.raises(RuntimeError, match="inside a running map of the same scope"):
            list(imap(pids_of_squares, list(range(2, 14))))
        assert_no_child_left()
        # the refused map ended the running one, so the scope maps again
        assert dict(imap(square_with_pid, [1, 2]))[1][1] == 4
    assert len(forks) == 2 * (processes - 1)
    assert_no_child_left()


def test_a_child_has_no_scope_so_its_maps_run_serially(monkeypatch, forks):
    cpus(monkeypatch, 3)
    sizes = list(range(2, 14))
    with workers():
        results = dict(imap(map_again_in_a_child, sizes))
        assert len(forks) == 2
    nested = 0
    for index, (pid, inner) in results.items():
        if inner is not None:
            nested += 1
            # the inner map ran wholly in the child that started it
            assert inner == [(pid, i * i) for i in range(sizes[index])]
    assert {pid for pid, _ in results.values()} == {os.getpid(), *forks}
    assert nested == 8
    assert_no_child_left()
