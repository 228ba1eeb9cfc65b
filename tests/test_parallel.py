import os
import sys
import threading
import time

import pytest

from replaycm.parallel import ChildTraceback, fork_map, usable_cpus


def assert_no_child_left():
    """No child process of this one runs or waits to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_pipe_left_open():
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


def square_with_pid(x):
    return os.getpid(), x * x


def test_usable_cpus_is_the_affinity_mask():
    assert usable_cpus() == len(os.sched_getaffinity(0)) >= 1


@pytest.mark.parametrize("processes", [1, 2, 3, 5])
def test_every_item_once_with_its_own_result(processes):
    results = list(fork_map(square_with_pid, list(range(23)), processes))
    assert sorted(index for index, _ in results) == list(range(23))
    assert all(value[1] == index * index for index, value in results)
    assert len({pid for _, (pid, _) in results}) == processes
    assert_no_child_left()


@pytest.mark.parametrize("items, processes", [([7], 4), ([1, 2, 3], 1)])
def test_one_item_or_one_process_runs_here(items, processes):
    results = list(fork_map(square_with_pid, items, processes))
    assert {pid for _, (pid, _) in results} == {os.getpid()}


def test_a_process_running_other_threads_does_not_fork():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        results = list(fork_map(square_with_pid, list(range(8)), 3))
    finally:
        release.set()
        thread.join()
    assert {pid for _, (pid, _) in results} == {os.getpid()}


def test_without_fork_every_item_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    results = list(fork_map(square_with_pid, list(range(8)), 3))
    assert sorted(index for index, _ in results) == list(range(8))
    assert {pid for _, (pid, _) in results} == {os.getpid()}


def test_without_fcntl_the_children_use_the_default_pipe(monkeypatch):
    monkeypatch.setitem(sys.modules, "fcntl", None)  # import fcntl raises ImportError
    results = list(fork_map(square_with_pid, list(range(23)), 2))
    assert sorted(index for index, _ in results) == list(range(23))
    assert len({pid for _, (pid, _) in results}) == 2
    assert_no_child_left()


def test_an_error_in_a_child_is_raised_here_with_its_traceback():
    parent = os.getpid()

    def fail_in_a_child(x):
        if os.getpid() != parent and x == 1:
            raise KeyError(f"item {x}")
        return x

    # the child computes the odd items
    with pytest.raises(KeyError, match="item 1") as info:
        list(fork_map(fail_in_a_child, list(range(12)), 2))
    assert isinstance(info.value.__cause__, ChildTraceback)
    assert "fail_in_a_child" in str(info.value.__cause__)
    assert_no_child_left()


def test_a_child_that_dies_without_reporting_is_named():
    parent = os.getpid()

    def die_in_a_child(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError, match="exited with status 3"):
        list(fork_map(die_in_a_child, list(range(6)), 2))
    assert_no_child_left()


def test_an_error_here_stops_every_child():
    parent = os.getpid()

    def fail_here(x):
        if os.getpid() == parent:
            raise ValueError("parent side")
        time.sleep(0.05)
        return x

    with pytest.raises(ValueError, match="parent side"):
        list(fork_map(fail_here, list(range(40)), 3))
    assert_no_child_left()


def test_an_abandoned_map_stops_every_child():
    parent = os.getpid()

    def slow_in_a_child(x):
        if os.getpid() != parent:
            time.sleep(60)
        return x

    results = fork_map(slow_in_a_child, list(range(40)), 3)
    assert next(results)[0] == 0  # this process computes items 0, 3, 6, ...
    started = time.monotonic()
    results.close()
    assert time.monotonic() - started < 10
    assert_no_child_left()
