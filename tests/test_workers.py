import os
import threading

import pytest

from quenchsim.workers import _map_ranges, _openblas, _ranges


def set_cpus(monkeypatch, n):
    affinity = set(range(n))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 256])
def test_ranges_cover_the_indices_in_order(monkeypatch, cpus, n):
    set_cpus(monkeypatch, cpus)
    ranges = _ranges(n)
    assert len(ranges) == min(cpus, n)
    assert all(len(r) > 0 and r.step == 1 for r in ranges)
    assert [i for r in ranges for i in r] == list(range(n))


def test_results_come_in_range_order(monkeypatch):
    set_cpus(monkeypatch, 3)
    ranges = _ranges(256)
    started = threading.Barrier(len(ranges), timeout=10)

    def sum_range(r):
        started.wait()  # every range runs at once, on a thread of its own
        return sum(r), threading.get_ident()

    results = _map_ranges(sum_range, ranges, [])
    assert [total for total, _ in results] == [sum(r) for r in ranges]
    threads = {thread for _, thread in results}
    assert len(threads) == 3 and threading.get_ident() not in threads


def test_one_range_starts_no_thread():
    before = threading.active_count()
    seen = []

    def record(r):
        seen.append((threading.get_ident(), threading.active_count()))
        return list(r)

    assert _map_ranges(record, [range(4)], []) == [[0, 1, 2, 3]]
    assert seen == [(threading.get_ident(), before)]


def test_later_range_exception_leaves_and_no_thread_survives(monkeypatch):
    set_cpus(monkeypatch, 2)
    ranges = _ranges(10)
    error = RuntimeError("range failed")
    finished = []

    def fail_second(r):
        if r.start:
            raise error
        finished.append(r)
        return r

    before = set(threading.enumerate())
    with pytest.raises(RuntimeError) as raised:
        _map_ranges(fail_second, ranges, [])
    assert raised.value is error
    assert finished == ranges[:1]  # the first range ran to its end
    assert [t for t in threading.enumerate() if t not in before] == []


def thread_counts():
    return [get() for get, _ in _openblas()]


@pytest.mark.skipif(not _openblas(), reason="no OpenBLAS loaded in this process")
def test_workers_run_openblas_on_one_thread_and_restore_it(monkeypatch):
    set_cpus(monkeypatch, 2)
    libraries = _openblas()
    before = thread_counts()
    seen = []

    def record(r):
        seen.append(thread_counts())
        return r

    _map_ranges(record, _ranges(2), libraries)
    assert seen == [[1] * len(libraries)] * 2
    assert thread_counts() == before

    def fail(r):
        seen.append(thread_counts())
        raise RuntimeError("range failed")

    seen.clear()
    with pytest.raises(RuntimeError):
        _map_ranges(fail, _ranges(2), libraries)
    assert seen == [[1] * len(libraries)] * 2
    assert thread_counts() == before
