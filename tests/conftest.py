import os
import warnings

import pytest

from nullshadow import _parts


@pytest.fixture
def split_into(monkeypatch):
    """``split_into(parts)`` lets ``_parts.pieces`` fork up to ``parts`` parts here; it returns the pids forked from then on.

    ``pieces`` forks only in a process with one thread, and this one has
    numpy's BLAS threads.  Python 3.12 warns of a fork under threads.
    """
    fork = os.fork

    def split(parts):
        monkeypatch.setattr(_parts, "_single_threaded", lambda: True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        forks = []

        def counted():
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*fork\\(\\) may lead to deadlocks", DeprecationWarning)
                pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    return split
