"""The process entry of ``python -m nullshadow`` and the ``nullshadow`` console script."""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence

from .cli import _report, main


def run(argv: Sequence[str] | None = None) -> int:
    """``cli.main(argv)`` as a whole process: the exit code, then a frozen heap.

    ``gc.freeze()`` moves every object into the permanent generation, so
    the full collections of interpreter shutdown skip them: 4-6 ms each
    over the ~22 000 objects a run that loaded numpy holds.  atexit, the
    flush of stdout and stderr, module teardown and refcount frees still
    run.  The freeze is in ``finally``, so argparse's ``SystemExit`` and an
    uncaught exception end the same way.  ``cli.main`` itself never
    freezes: it is the library call, and its caller keeps its collector.

    ``main`` flushes what it writes to stdout and reports a write that
    fails (exit 1); a message that stderr refuses leaves the exit code as
    it is.  Text that either stream refused stays in its buffer, so it is
    sent to the null device here; shutdown's flush would fail on it again
    and turn the exit code into 120.

    A ``KeyboardInterrupt`` (SIGINT, Ctrl-C) writes one line,
    ``nullshadow: error: interrupted``, instead of a traceback, and the
    process then dies by SIGINT under its default handler: the parent sees
    the signal (130 in a shell) as before, and no exit code is added.
    """
    try:
        return main(argv)
    except KeyboardInterrupt:
        import signal  # here, so that no run that is not interrupted loads it

        _report("interrupted")
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise  # only where SIGINT is blocked: end as the interpreter would
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                if stream is not None:
                    stream.flush()
            except OSError:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, stream.fileno())
                os.close(null)
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
