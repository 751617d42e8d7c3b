"""One thread pool for exact data parallelism, sized by ``TUBEKIT_THREADS``.

Unset or ``0`` uses every core the process may run on; a positive integer
caps the worker count at that many, never above the available cores; ``1``
runs the parts in a plain loop with no pool.  Callers keep results exact:
each part writes a disjoint region, and a float sum whose bits depend on
order stays on the calling thread (a max may be split, it is order-free).
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

from .errors import ParameterError


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


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="tubekit")


def parallel_map(fn, parts) -> list:
    """[fn(p) for p in parts], run on the pool.  Every part finishes before
    the first exception, in part order, reaches the caller.  A part must
    not call parallel_map: it would wait on the workers it occupies."""
    workers = thread_count()
    if workers == 1 or len(parts) < 2:
        return [fn(p) for p in parts]
    futures = [_pool(workers).submit(fn, p) for p in parts]
    wait(futures)
    return [f.result() for f in futures]
