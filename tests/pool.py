"""A worker count for the tests that run code on the ``tubekit.workers`` pool."""

import contextlib
import os
from unittest import mock

from tubekit import workers


@contextlib.contextmanager
def at_workers(n: int):
    """TUBEKIT_THREADS=n on a host that appears to have n cores, so the
    count holds on a host of fewer; checks that ``thread_count()`` is n."""
    with mock.patch.dict(os.environ, {"TUBEKIT_THREADS": str(n)}), \
            mock.patch.object(workers, "_available_cores", return_value=n):
        assert workers.thread_count() == n
        yield
