"""The ``TUBEKIT_THREADS`` pool: the environment contract, ``parallel_map``,
``claims`` and the slab plan.

The core count is patched wherever a test needs more workers than the
host has, and a huge value is only ever passed to ``thread_count``, so no
test can start more threads than it asks for.
"""

import collections
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("plane", [2000, 128 * 128, 300 * 300])
def test_slab_plan_is_the_same_at_every_worker_count(cores, plane):
    # SLAB_VOXELS per slab, one slab in flight on each worker: 32-plane
    # slabs with a short last one, 4-plane slabs, and a plane larger than
    # a slab, which is a slab of its own.
    plans = []
    for n in ("1", "2", "3"):
        cores(n, 3)
        plans.append(workers.slabs(40, plane))
    assert plans[0] == plans[1] == plans[2]
    slabs = plans[0]
    assert [s.start for s in slabs] == [0] + [s.stop for s in slabs[:-1]] and slabs[-1].stop == 40
    for s in slabs:
        assert 1 <= s.stop - s.start
        assert (s.stop - s.start) * plane <= max(workers.SLAB_VOXELS, plane)


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


def test_a_part_the_caller_runs_raises_after_every_part_ends(cores):
    # Parts fail only on the calling thread, which runs at least one: it
    # takes every part the pool's one thread has not started.
    cores("2", 2)
    caller, ran = threading.get_ident(), []

    def fn(p):
        time.sleep(0.01)
        ran.append((p, threading.get_ident()))
        if threading.get_ident() == caller:
            raise ParameterError(f"part {p}")
        return p

    with pytest.raises(ParameterError) as info:
        workers.parallel_map(fn, list(range(4)))
    assert sorted(p for p, _ in ran) == [0, 1, 2, 3]
    mine = sorted(p for p, thread in ran if thread == caller)
    assert mine and str(info.value) == f"part {mine[0]}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_part_failing_inside_a_nested_call_raises_after_every_part_ends(cores, threads):
    cores(threads, 2)
    done = []

    def inner(q):
        if q == (1, 1):
            raise ParameterError(f"part {q}")
        time.sleep(0.01)
        done.append(q)

    def outer(p):
        workers.parallel_map(inner, [(p, 0), (p, 1), (p, 2)])
        done.append(p)

    with pytest.raises(ParameterError, match=r"part \(1, 1\)"):
        workers.parallel_map(outer, [0, 1, 2])
    expected = [0, (0, 0), (0, 1), (0, 2), (1, 0)]
    if threads == "2":  # every part ends, the failing one's siblings too
        expected += [2, (1, 2), (2, 0), (2, 1), (2, 2)]
    assert sorted(done, key=str) == sorted(expected, key=str)


def test_parallel_map_reuses_one_pool_of_at_most_the_worker_count(cores):
    cores("2", 2)
    seen = set()

    def fn(p):
        seen.add(threading.get_ident())
        time.sleep(0.002)

    for _ in range(3):
        workers.parallel_map(fn, list(range(8)))
    # the caller counted: it is one of the workers
    assert 1 <= len(seen) <= 2


def test_a_nested_call_runs_on_a_free_worker(cores):
    # The sub-parts of every nested call meet at one barrier: only
    # sub-parts in flight together pass it, so a nested call run in a
    # plain loop breaks it after 5 s.  Part 0 nests, and so does a part
    # the calling thread runs: a thread that waits on its own call's parts
    # joins no nested call, so at 2 workers a nested call made on the
    # pool's one thread has no free worker but the caller's own nested
    # call, and one made on the caller has the pool's thread.
    cores("2", 2)
    caller, barrier = threading.get_ident(), threading.Barrier(2, timeout=5)

    def meet(q):
        barrier.wait()
        return q

    def fn(p):
        if p == 0 or threading.get_ident() == caller:
            return workers.parallel_map(meet, [0, 1])
        time.sleep(0.05)
        return [0, 1]

    assert workers.parallel_map(fn, [0, 1]) == [[0, 1], [0, 1]]


def test_every_part_runs_once_while_the_caller_races_the_pool(cores):
    # More workers than cores and a short switch interval: the caller's
    # cancel() races a pool thread's start of the same part.  A part run
    # twice, or by no one, changes the counts; a deadlock leaves the
    # driving thread alive.
    cores("4", 4)
    runs, lock, results = collections.Counter(), threading.Lock(), []

    def leaf(key):
        with lock:
            runs[key] += 1
        return key

    def drive():
        for _ in range(40):
            results.append(workers.parallel_map(
                lambda p: workers.parallel_map(leaf, [(p, q) for q in range(5)]),
                list(range(6))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not driver.is_alive()
    keys = [(p, q) for p in range(6) for q in range(5)]
    assert results == [[keys[5 * p:5 * p + 5] for p in range(6)]] * 40
    assert runs == collections.Counter({key: 40 for key in keys})


@pytest.mark.parametrize("n, parts", [(0, 1), (0, 3), (1, 3), (5, 1), (32, 2), (7, 3)])
def test_claims_yield_each_index_once(n, parts):
    # Consumed one after the other, the first part takes every index.
    got = [list(claim) for claim in workers.claims(n, parts)]
    assert sorted(got[0]) == list(range(n))
    assert all(part == [] for part in got[1:])


def test_a_part_that_runs_out_takes_the_back_half_of_the_longest_share():
    # Shares [0, 2), [2, 4) and [4, 7): the first part's own, then [5, 7)
    # of the third, [3, 4) of the second, and the single indices left,
    # the first longest share first.
    assert list(workers.claims(7, 3)[0]) == [0, 1, 5, 6, 3, 2, 4]


def test_claims_deal_each_index_once_while_parts_race():
    # More parts than cores and a short switch interval, over many short
    # ranges, so parts often take over the last indices of others: an
    # index that two parts claimed, or that no part claimed, changes the
    # sorted list of a round.
    n, parts, rounds = 64, 8, 100
    got = []

    def consume(claim, out):
        for i in claim:
            out.append(i)
            time.sleep(1e-4 if out is outs[0] else 0)  # the others take from the first

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            outs = [[] for _ in range(parts)]
            threads = [threading.Thread(target=consume, args=(claim, out))
                       for claim, out in zip(workers.claims(n, parts), outs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            got.append(sorted(i for out in outs for i in out))
    finally:
        sys.setswitchinterval(interval)
    assert got == [list(range(n))] * rounds


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1 keeps errstate per thread, not in the context")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_parallel_map_parts_keep_the_callers_errstate(cores, threads):
    cores(threads, 2)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError, match="divide by zero"):
            workers.parallel_map(lambda p: np.array([p]) / 0.0, [1.0, 2.0])


# (depth, workers, the outer part, the child's printed result): a part
# calls parallel_map, and at depth 3 a part of that call calls it again
NESTED = [
    (2, 2, "lambda p: workers.parallel_map(lambda q: 10 * p + q, [0, 1, 2])",
     [[0, 1, 2], [10, 11, 12], [20, 21, 22]]),
    *((3, n, "lambda p: workers.parallel_map(lambda q: workers.parallel_map(\n"
             "    lambda r: 100 * p + 10 * q + r, [0, 1]), [0, 1])",
       [[[0, 1], [10, 11]], [[100, 101], [110, 111]], [[200, 201], [210, 211]]])
      for n in (2, 4)),
]


def test_a_part_may_call_parallel_map():
    # In a child process: a deadlocked pool would keep threads that no
    # test could free, and the child can be killed.
    for depth, n, fn, expected in NESTED:
        code = ("from tubekit import workers\n"
                f"workers._available_cores = lambda: {n}\n"
                f"print(workers.parallel_map({fn}, [0, 1, 2]))\n")
        env = {**os.environ, "TUBEKIT_THREADS": str(n),
               "PYTHONPATH": str(Path(workers.__file__).parents[1])}
        try:
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail(f"the parallel_map nested {depth} deep at {n} workers deadlocked")
        assert (run.returncode, run.stdout) == (0, f"{expected}\n"), (depth, n)
