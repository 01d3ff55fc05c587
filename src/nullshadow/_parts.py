"""Fork-join over a range cut at chunk boundaries, with a result that does not depend on the cut.

``pieces(n, chunk, min_part, work)`` joins to ``"".join(work(a, min(a +
chunk, n)) for a in range(0, n, chunk))``, whatever ``work`` computes.

The split saves wall time only on a host whose CPUs run this process and
its helpers at once; it barely adds CPU time.  On a shared 2-vCPU VM, two
concurrent CPU-bound processes took 1.02-2.44 times the wall time of one,
varying by the hour.  There, a 50 001-row JSON render took 106-131 ms in
one process and 116-134 ms split (8 fresh interpreters each), and the CPU
time of the split and its helper summed to the serial CPU time plus
2-10 ms.  Before measuring a split's gain, time two concurrent spin loops
against one::

    spin='import time; t = time.perf_counter(); sum(range(3 * 10**7)); print(time.perf_counter() - t)'
    python3 -c "$spin"; python3 -c "$spin" & python3 -c "$spin"; wait

Near 1 times the solo wall each, the CPUs run at once; near 2 times, they
take turns and no split can pay.
"""

import codecs
import os
from collections.abc import Callable

# Bytes per read of a helper's pipe: a pipe holds 64 KiB by default on Linux.
_READ_BYTES = 1 << 16


def pieces(n: int, chunk: int, min_part: int, work: Callable[[int, int], str]) -> list[str]:
    """The text of ``work(a, b)`` for each chunk a..b-1 of range(n), in pieces, in order.

    The range is split at multiples of ``chunk`` into ``_count(n,
    min_part)`` contiguous parts, none empty when ``min_part >= chunk``.
    This process computes the first part while a helper process forked for
    each other part computes that part; their texts are read back in
    order, each from its helper's pipe.  A part whose helper was not made
    or did not exit 0 is computed here, so the pieces join to the same
    text, and raise the same error, as with no helper.  An exception,
    KeyboardInterrupt included, SIGKILLs and reaps every helper still
    running before it propagates.
    """
    def part(start: int, stop: int) -> list[str]:
        return [work(a, min(a + chunk, n)) for a in range(start, stop, chunk)]

    parts = _count(n, min_part)
    bounds = [n * i // parts // chunk * chunk for i in range(parts)] + [n]
    helpers: dict[int, int] = {}  # pid: the read end of its pipe, for each helper not yet reaped
    try:
        later = [(_fork_helper(start, stop, chunk, work, helpers), start, stop)
                 for start, stop in zip(bounds[1:-1], bounds[2:])]
        text = part(bounds[0], bounds[1])
        for pid, start, stop in later:
            done = None if pid is None else _collect(pid, helpers)
            text += part(start, stop) if done is None else done
    finally:  # a helper is still listed only when an exception ends the join
        if helpers:
            _stop(helpers)
    return text


def _count(n: int, min_part: int) -> int:
    """How many processes compute a range of ``n``.

    One per usable CPU, and at most one per ``min_part``; one where
    ``os.fork`` is missing, or where this process has more than one thread
    (a forked child holds a copy of any lock another thread held) or no
    /proc to count them in.
    """
    parts = n // min_part
    if parts < 2 or not hasattr(os, "fork") or not _single_threaded():
        return 1
    return min(len(os.sched_getaffinity(0)), parts)


def _single_threaded() -> bool:
    """Whether this process has one OS thread; False where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork_helper(start: int, stop: int, chunk: int, work: Callable[[int, int], str],
                 helpers: dict[int, int]) -> int | None:
    """Fork a helper that writes the text of start..stop-1 to a pipe; its pid, recorded in ``helpers``.

    None when no pipe or process could be made.  The helper computes its
    whole part before it writes any of it, and gives up between two chunks
    once the process it was forked from is gone.  Its whole body, from the
    return of ``os.fork``, is in a ``try`` whose ``finally`` ends in
    ``os._exit``: it exits 0 once all of its text is written and 1 on any
    exception, SIGINT's included, with no atexit handler, no flush of an
    inherited buffer and nothing on stderr.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    parent, status = os.getpid(), 1
    try:
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            for fd in (read, *helpers.values()):
                os.close(fd)
            text = []
            for first in range(start, stop, chunk):
                if os.getppid() != parent:
                    raise ProcessLookupError("the process that reads this part is gone")
                text.append(work(first, min(first + chunk, stop)))
            with open(write, "w", encoding="utf-8", newline="") as pipe:
                pipe.writelines(text)
            status = 0
    finally:
        if os.getpid() != parent:
            os._exit(status)
        os.close(write)
    if pid is None:
        os.close(read)
    else:
        helpers[pid] = read
    return pid


def _collect(pid: int, helpers: dict[int, int]) -> list[str] | None:
    """The text helper ``pid`` wrote, in pieces, or None unless it exited 0; the helper is reaped.

    The pipe is read and decoded a block at a time: a buffer grown to the
    size of the part, and then decoded whole, raised the peak RSS of a
    10^6-row decay-ensemble JSON render by ~10 MB.
    """
    fd, decoder, text = helpers[pid], codecs.getincrementaldecoder("utf-8")(), []
    while block := os.read(fd, _READ_BYTES):
        text.append(decoder.decode(block))
    try:
        status = os.waitpid(pid, 0)[1]
    except ChildProcessError:  # reaped by the system, as under SIGCHLD's SIG_IGN: its status is unknown
        status = None
    os.close(helpers.pop(pid))
    if status != 0:
        return None
    text.append(decoder.decode(b"", final=True))
    return text


def _stop(helpers: dict[int, int]) -> None:
    """SIGKILL and reap every helper in ``helpers`` still running, and close every pipe."""
    import signal  # here, so that no run that ends normally loads it

    for pid, fd in helpers.items():
        os.close(fd)
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped just before the exception
            pass
