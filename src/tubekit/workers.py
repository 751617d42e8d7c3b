"""One thread pool for exact data parallelism, sized by ``TUBEKIT_THREADS``.

Unset or ``0`` uses every core the process may run on (its CPU affinity
set); a positive integer caps the worker count at that many, never above
the available cores; ``1`` runs the parts in a plain loop with no pool.
Any other value (``-1``, ``1.5``, ``abc``, the empty string) is a
``ParameterError``, which ``tubekit.cli`` checks before it reads a file.

The pool's users: the phantom's z-slabs, the runs of slabs that
vesselness smooths and eigen-solves, in each of its two passes one run
per worker dealt by ``claims``, the slabs it writes the response to, the
blocks of a whole-volume smoothing, ``tubekit loss``'s growth terms
beside its spatial term, ``reconnect``'s nearest-endpoint rounds (row
ranges of query points) and ``metrics.surface_distances`` and
``metrics.evaluate`` (row ranges again, plus the centerline scores);
every other stage runs on the calling thread.  Callers keep results
exact: each part writes a disjoint region, and a float sum whose bits
depend on order stays on the calling thread (a max may be split, it is
order-free).  A part may also be a whole computation that reads no other
part's output, such as one loss term or ``metrics.evaluate``'s
centerline scores, with every sum of it inside the part.  Or it may
answer one range of query points against a shared kd-tree
(``metrics.surface_distances``, the nearest-endpoint search of
``skeleton.reconnect``): a point's nearest neighbours depend only on the
point and the tree, so the ranges, joined in part order, are one query's
result.

The calling thread is one of the workers, beside the pool's
``thread_count() - 1`` threads, so a part may call ``parallel_map`` in
turn (``metrics.evaluate`` runs ``surface_distances`` as a part) and a
free pool thread joins the nested call; ``parallel_map`` says why it
cannot deadlock.

The slab plan: every stage that cuts a volume into slabs takes them from
``slabs``, ``SLAB_VOXELS`` voxels a slab or one plane if a plane is
larger, the same at every worker count: the slabs of vesselness and
its smoothing, the phantom's z-slabs, the .tvol z-slabs and
``Mask3``'s check of values that are not uint8.
"""

import contextvars
import functools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

from .errors import ParameterError

SLAB_VOXELS = 1 << 16


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count() -> int:
    """Workers to use: ``TUBEKIT_THREADS`` capped at the available cores."""
    text = os.environ.get("TUBEKIT_THREADS", "0")
    if not (text.isascii() and text.isdigit()):
        raise ParameterError(f"TUBEKIT_THREADS must be an integer >= 0, got {text!r}")
    cores = _available_cores()
    return cores if int(text) == 0 else min(int(text), cores)


def slabs(n: int, plane: int) -> list:
    """The slab plan's slices of an axis of n planes of ``plane`` voxels."""
    step = max(1, SLAB_VOXELS // plane)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers - 1`` threads, created on first use."""
    return ThreadPoolExecutor(workers - 1, thread_name_prefix="tubekit")


def _run_here(call) -> Future:
    done = Future()
    try:
        done.set_result(call())
    except Exception as error:  # raised in part order, after every part ends
        done.set_exception(error)
    return done


def parallel_map(fn, parts) -> list:
    """[fn(p) for p in parts], on the calling thread and the pool.  Every
    part finishes before the first exception, in part order, reaches the
    caller.  Each part runs in a copy of the caller's context, so
    ``np.errstate`` holds in it.

    The caller runs, in part order, every part no pool thread has started
    (its future can still be cancelled), then waits on the parts that are
    running.  A thread thus waits only on parts of its own call that other
    threads run, and those wait only on parts nested deeper still, so a
    nested call cannot deadlock."""
    workers = thread_count()
    if workers == 1 or len(parts) < 2:
        return [fn(p) for p in parts]
    calls = [functools.partial(contextvars.copy_context().run, fn, p) for p in parts]
    futures = [_pool(workers).submit(call) for call in calls]
    futures = [_run_here(call) if f.cancel() else f for call, f in zip(calls, futures)]
    wait(futures)
    return [f.result() for f in futures]


def claims(n: int, workers: int) -> list:
    """``workers`` iterators over range(n) that together yield each index
    once, for parts that keep state from one index to the next: each
    starts on its share of consecutive indices, and one that runs out
    takes the back half of the largest share left, so a part that ends
    early takes over work that another has not started."""
    lock = threading.Lock()
    shares = [[w * n // workers, (w + 1) * n // workers] for w in range(workers)]

    def claim(own):
        while True:
            with lock:
                if own[0] == own[1]:
                    most = max(shares, key=lambda share: share[1] - share[0])
                    if most[0] == most[1]:
                        return
                    own[:] = [(most[0] + most[1]) // 2, most[1]]
                    most[1] = own[0]
                i = own[0]
                own[0] += 1
            yield i

    return [claim(own) for own in shares]
