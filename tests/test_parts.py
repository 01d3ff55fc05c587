"""The contract of ``_parts.pieces``: its pieces join to the serial map over the chunks, however it splits.

The range is split across forked helpers only in a process with one
thread; this one has numpy's BLAS threads, so the tests declare it
single-threaded and set the usable CPUs, and with them the number of
parts.  Python 3.12 warns of a fork under threads.
"""

import os

import pytest

from nullshadow import _parts
from nullshadow._parts import pieces

FORKS_UNDER_THREADS = pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks:DeprecationWarning")
# A part boundary falls on a multiple of CHUNK, not of MIN_PART, and a range's
# last chunk is short unless CHUNK divides its length.
CHUNK, MIN_PART = 3, 7
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * MIN_PART - 1, 2 * MIN_PART, 5 * MIN_PART + 1]


def spans(a, b):
    return f"{a}-{b};"


def serial(n, work):
    return "".join(work(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK))


def split_into(monkeypatch, parts):
    """Let ``pieces`` split a range into up to ``parts`` parts here; the pids it forks, as it forks them."""
    monkeypatch.setattr(_parts, "_single_threaded", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@FORKS_UNDER_THREADS
@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", SIZES)
def test_pieces_join_to_the_serial_map(n, parts, monkeypatch):
    forks = split_into(monkeypatch, parts)
    assert "".join(pieces(n, CHUNK, MIN_PART, spans)) == serial(n, spans)
    assert len(forks) == max(1, min(parts, n // MIN_PART)) - 1
    assert_no_child_left()


# A helper that raises exits 1, and this process computes its part again
# and raises there; an error in this process's own part kills and reaps the
# helpers.  Either way the error is the one a single process raises.
@FORKS_UNDER_THREADS
@pytest.mark.parametrize("where", ["later part", "first part"])
def test_an_error_in_work_is_the_serial_error(where, monkeypatch):
    n = 5 * MIN_PART + 1
    bad = n - 1 if where == "later part" else 0

    def work(a, b):
        if a <= bad < b:
            raise ValueError(f"no text for {a}-{b}")
        return spans(a, b)

    with pytest.raises(ValueError) as alone:
        serial(n, work)
    forks = split_into(monkeypatch, 3)
    with pytest.raises(ValueError) as split:
        pieces(n, CHUNK, MIN_PART, work)
    assert str(split.value) == str(alone.value) and len(forks) == 2
    assert_no_child_left()
