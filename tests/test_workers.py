"""The ``TUBEKIT_THREADS`` pool: the environment contract and ``parallel_map``.

The core count is patched wherever a test needs more workers than the
host has, and a huge value is only ever passed to ``thread_count``, so no
test can start more threads than it asks for.
"""

import threading
import time

import pytest

from tubekit import ParameterError, workers


@pytest.fixture
def cores(monkeypatch):
    """Set TUBEKIT_THREADS (None unsets it) on a host of ``n`` cores."""
    def set_up(value, n):
        if value is None:
            monkeypatch.delenv("TUBEKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("TUBEKIT_THREADS", value)
        monkeypatch.setattr(workers, "_available_cores", lambda: n)
    return set_up


@pytest.mark.parametrize("value, n, expected", [
    (None, 3, 3), ("0", 2, 2), ("00", 4, 4), ("1", 4, 1), ("2", 4, 2),
    ("3", 2, 2), ("1000000", 2, 2),
])
def test_thread_count_caps_the_value_at_the_available_cores(cores, value, n, expected):
    cores(value, n)
    assert workers.thread_count() == expected


@pytest.mark.parametrize("value", ["-1", "abc", "1.5", "", " 2", "+2", "²"])
def test_thread_count_rejects_anything_but_a_count(monkeypatch, value):
    monkeypatch.setenv("TUBEKIT_THREADS", value)
    with pytest.raises(ParameterError, match="TUBEKIT_THREADS must be an integer >= 0"):
        workers.thread_count()


def test_huge_value_never_exceeds_the_host_cores(monkeypatch):
    # Only the count is asked for: no pool is started.
    monkeypatch.setenv("TUBEKIT_THREADS", "1000000")
    assert 1 <= workers.thread_count() <= workers._available_cores()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_parallel_map_keeps_part_order(cores, threads):
    cores(threads, 3)
    assert workers.parallel_map(lambda p: p * p, list(range(17))) == [p * p for p in range(17)]
    assert workers.parallel_map(lambda p: p, []) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_parallel_map_finishes_every_part_then_raises_the_first_error(cores, threads):
    cores(threads, 2)
    done = []

    def fn(p):
        if p in (1, 3):
            raise ParameterError(f"part {p}")
        time.sleep(0.01)
        done.append(p)
        return p

    with pytest.raises(ParameterError, match="part 1") as info:
        workers.parallel_map(fn, list(range(6)))
    assert type(info.value) is ParameterError
    # The plain loop stops at the failing part; the pool lets every part end.
    assert sorted(done) == ([0] if threads == "1" else [0, 2, 4, 5])


def test_parallel_map_reuses_one_pool_of_at_most_the_worker_count(cores):
    cores("2", 2)
    seen = set()

    def fn(p):
        seen.add(threading.get_ident())
        time.sleep(0.002)

    for _ in range(3):
        workers.parallel_map(fn, list(range(8)))
    assert threading.get_ident() not in seen
    assert 1 <= len(seen) <= 2
