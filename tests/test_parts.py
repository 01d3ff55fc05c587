"""The contract of ``_parts.pieces``: its pieces join to the serial map over the chunks, however it splits.

A helper that fails costs time only, and an exception leaves no helper behind.
"""

import errno
import io
import os
import signal
import time

import pytest

from nullshadow import _parts
from nullshadow._parts import pieces

# A part boundary falls on a multiple of CHUNK, not of MIN_PART, and a range's
# last chunk is short unless CHUNK divides its length.
CHUNK, MIN_PART = 3, 7
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * MIN_PART - 1, 2 * MIN_PART, 5 * MIN_PART + 1]
N = SIZES[-1]


def spans(a, b):
    return f"{a}\u00e9\u20ac\U0001d11e{b};"  # 2, 3 and 4 bytes in UTF-8


def serial(n, work):
    return "".join(work(a, min(a + CHUNK, n)) for a in range(0, n, CHUNK))


def joined(work):
    return "".join(pieces(N, CHUNK, MIN_PART, work))


def in_helpers(act):
    """``spans``, but run ``act()`` first wherever it runs in a helper."""
    parent = os.getpid()

    def work(a, b):
        if os.getpid() != parent:
            act()
        return spans(a, b)

    return work


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A helper's text is read in blocks, here of 5 bytes, which may end inside a character.
@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", SIZES)
def test_pieces_join_to_the_serial_map(n, parts, split_into, monkeypatch):
    forks = split_into(parts)
    monkeypatch.setattr(_parts, "_READ_BYTES", 5)
    assert "".join(pieces(n, CHUNK, MIN_PART, spans)) == serial(n, spans)
    assert len(forks) == max(1, min(parts, n // MIN_PART)) - 1
    assert_no_child_left()


# A helper that raises exits 1, and this process computes its part again
# and raises there; an error in this process's own part kills and reaps the
# helpers.  Either way the error is the one a single process raises.
@pytest.mark.parametrize("where", ["later part", "first part"])
def test_an_error_in_work_is_the_serial_error(where, split_into):
    bad = N - 1 if where == "later part" else 0

    def work(a, b):
        if a <= bad < b:
            raise ValueError(f"no text for {a}-{b}")
        return spans(a, b)

    with pytest.raises(ValueError) as alone:
        serial(N, work)
    forks = split_into(3)
    with pytest.raises(ValueError) as split:
        pieces(N, CHUNK, MIN_PART, work)
    assert str(split.value) == str(alone.value) and len(forks) == 2
    assert_no_child_left()


def _raise_memory_error():
    raise MemoryError


HELPER_FAILURES = {
    "memory-error": _raise_memory_error,
    "exit-1": lambda: os._exit(1),
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


# A helper that fails costs time only: this process computes its part again.
@pytest.mark.parametrize("failure", HELPER_FAILURES)
def test_a_failed_helper_leaves_the_serial_text(failure, split_into):
    forks = split_into(3)
    assert joined(in_helpers(HELPER_FAILURES[failure])) == serial(N, spans)
    assert len(forks) == 2
    assert_no_child_left()


def _refuse(*args):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


# With no pipe or no process to be had, as under RLIMIT_NPROC, every part
# is computed here.
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_helper_that_cannot_be_made_leaves_the_serial_text(call, split_into, monkeypatch):
    split_into(3)
    monkeypatch.setattr(os, call, _refuse)
    assert joined(spans) == serial(N, spans)


# A helper killed halfway through writing its text leaves a short stream.
def test_a_helper_killed_while_it_writes_leaves_the_serial_text(split_into, monkeypatch):
    class HalfWritten(io.TextIOWrapper):
        def writelines(self, text):
            super().writelines(text[: len(text) // 2])
            self.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    def pipe_open(fd, *args, **kwargs):  # only a helper opens its pipe
        return HalfWritten(open(fd, "wb"), encoding="utf-8", newline="")

    forks = split_into(2)
    monkeypatch.setattr(_parts, "open", pipe_open, raising=False)
    assert joined(spans) == serial(N, spans)
    assert len(forks) == 1


# A caller that ignores SIGCHLD has its children reaped by the system, so no
# helper's exit status can be read, and every part is computed again here.
def test_helpers_reaped_by_the_system_leave_the_serial_text(split_into):
    forks = split_into(3)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert joined(spans) == serial(N, spans)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 2


# An exception here, an interrupt included, SIGKILLs and reaps the helpers
# that still run; each of these would sleep for a minute.
def test_an_interrupt_while_helpers_run_leaves_no_child(split_into):
    parent = os.getpid()

    def work(a, b):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    forks = split_into(3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        joined(work)
    assert len(forks) == 2 and time.monotonic() - start < 30
    assert_no_child_left()


# A helper that sees another parent pid, here from the start, stops before its
# next chunk and exits 1, and its part is computed here: a pipe that each
# chunk computed in a helper writes to stays empty.
def test_a_helper_whose_parent_is_gone_computes_no_chunk(split_into, monkeypatch):
    forks = split_into(3)
    marker, mark = os.pipe()
    monkeypatch.setattr(os, "getppid", lambda: 0)
    try:
        assert joined(in_helpers(lambda: os.write(mark, b"."))) == serial(N, spans)
    finally:
        os.close(mark)
    with open(marker, "rb") as computed:
        assert computed.read() == b""
    assert len(forks) == 2
    assert_no_child_left()


def test_a_process_without_fork_or_proc_computes_alone(split_into, monkeypatch):
    split_into(4)
    assert _parts._count(N, MIN_PART) == 4
    assert _parts._count(2 * MIN_PART - 1, MIN_PART) == 1
    monkeypatch.delattr(os, "fork")
    assert _parts._count(N, MIN_PART) == 1
    monkeypatch.undo()
    monkeypatch.setattr(os, "listdir", _refuse)  # /proc/self/task cannot be listed
    assert _parts._single_threaded() is False
