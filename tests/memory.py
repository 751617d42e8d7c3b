"""tracemalloc around one call, for the tests that bound what a call holds."""

import tracemalloc


def traced(fn, *args, **kwargs):
    """(fn(*args, **kwargs), size, peak): the bytes the call left held,
    its result included, and its peak, both above what was held when it
    began.  tracemalloc counts every thread.  Tracing already on stays
    on; otherwise it runs only for the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, size - base, peak - base
