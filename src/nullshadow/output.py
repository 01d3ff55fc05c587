"""Machine-readable run records: one table plus scalars per scenario.

Two formats, both byte-deterministic for a given record:

  * JSON: a single object carrying scenario name, simulator version,
    seed, config echo, summary scalars, and the table; validates
    against ``schemas/output_record.schema.json``.
  * CSV: the table only (RFC-4180 quoting, LF line endings, header
    first).  Config echo lives in the JSON format.

Floats are written with Python repr semantics (shortest decimal that
round-trips), so parsing a file back reproduces every value exactly.

A record holds plain Python values; its producer turns numpy ones into
them and writes a missing value as None, null in JSON and an empty CSV
cell.  Table cells are str, int, finite float or None, encoded as they
are: a non-finite float in a JSON record raises ValueError.  A table is
encoded a few hundred rows at a time, from contiguous slices of its
rows.  A table whose rows are pure functions of their index, or slices
of an array, may be a ``ComputedRows``, a length and a contiguous slice
computed when asked for, so no more than one chunk of its rows exists
at once.  On Linux, a large table in a process of one thread is split
into contiguous parts, one per usable CPU, and a helper process forked
for each part after the first encodes it and sends its text back over a
pipe; the bytes do not depend on the split.  The record text is built
by one join of its pieces and written in slices, so rendering and
writing peak at about two copies of the text.  A record file is written
beside its path and renamed over it after the last byte, so a failed
write leaves no partial record.
"""

from __future__ import annotations

import codecs
import csv
import errno
import io
import json
import os
import stat
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence

from . import __version__


# scenario: str, seed: int | None, config and summary: dicts of plain values,
# columns: list of str, rows: a list of rows of plain values or a ComputedRows
# of them; render reads only its len() and its contiguous slices.
OutputRecord = namedtuple("OutputRecord", "scenario seed config summary columns rows")


class ComputedRows:
    """A table of ``length`` rows, computed a contiguous slice at a time.

    ``rows[a:b]`` is ``compute(a, b)``, the list of rows a..b-1, with a and
    b read as a list reads slice bounds; it is ``[]`` when a >= b.  A
    stepped slice raises ValueError, an index TypeError.  Nothing is kept.
    """

    __slots__ = ("_length", "_compute")

    def __init__(self, length: int, compute: Callable[[int, int], list]) -> None:
        self._length, self._compute = length, compute

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, span: slice) -> list:
        start, stop, step = slice.indices(span, self._length)
        if step != 1:
            raise ValueError(f"a computed table slices only contiguously, got step {step}")
        return self._compute(start, stop) if start < stop else []


# With no indent the C encoder runs; this item separator puts every cell
# on its own line at the depth indent=2 gives a cell of a row.  JSON
# escapes newlines inside strings, so with scalar cells (the schema's
# rule) "]" + separator + "[" occurs only between two rows, and a row
# laid out with nothing between its brackets is an empty row.
_CELL_SEP = ",\n      "
_ROW_BOUNDARY = "]" + _CELL_SEP + "["
_ROWS_ENCODER = json.JSONEncoder(separators=(_CELL_SEP, ": "), allow_nan=False)
_ROW_START, _ROW_END, _ROW_SEP = "[\n      ", "\n    ]", ",\n    "
_ROW_JOIN = _ROW_END + _ROW_SEP + _ROW_START
_EMPTY_ROW = _ROW_START + _ROW_END

# Rows per encoder call: a chunk's Python lists and text are the only
# per-row copies besides the pieces of the record itself.  Freed copies of
# a few hundred KB (4096 rows) left heap holes worth ~3 MB of peak RSS.
_CHUNK_ROWS = 256
# A table of n rows is encoded in min(usable CPUs, n // _PART_ROWS) parts
# by as many processes, and in this one alone below two (``_encoded_rows``).
# Two parts rendered faster than one from ~1 500 rows on a shared 2-core
# VM, where a fork, its pipe and its reaping cost 0.6-1.4 ms; the helpers
# are forked one after another, so on a host of many CPUs larger parts
# keep that serial cost small beside the work each helper takes.  A part
# is at least one chunk, so none is empty.
_PART_ROWS = 2048
# Characters per write call, so encoding to UTF-8 copies one slice at a time.
_WRITE_CHARS = 1 << 20
# Bytes per read of a helper's pipe: a pipe holds 64 KiB by default on Linux.
_READ_BYTES = 1 << 16


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        head = {
            "scenario": record.scenario,
            "version": __version__,
            "seed": record.seed,
            "config": record.config,
            "summary": record.summary,
            "columns": list(record.columns),
        }
        text = json.dumps(head, indent=2, allow_nan=False)
        rows = _encoded_rows(record.rows, _chunk_json, _ROW_SEP)
        table = ["[\n    ", *rows, "\n  ]"] if rows else ["[]"]
        return "".join([text[: -len("\n}")], ',\n  "rows": ', *table, "\n}\n"])
    if fmt == "csv":
        return "".join([_chunk_csv([record.columns]), *_encoded_rows(record.rows, _chunk_csv)])
    raise ValueError(f"unknown output format {fmt!r}")


def write_record(record: OutputRecord, path: str | None, fmt: str) -> None:
    """Write to a file, or to stdout when no path is given.

    A path that names a regular file or nothing yet is written whole or
    not at all, by ``_write_replacing``.  Any other path, such as
    ``/dev/null``, a FIFO or a symlink, is written in place.
    """
    text = render(record, fmt)
    if path is None:
        _write_stdout(text)
    elif _replaceable(path):
        _write_replacing(path, text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_slices(fh, text)


def _replaceable(path: str) -> bool:
    """Whether ``path`` names a regular file, not a symlink, or nothing yet."""
    if not os.path.basename(path):  # "" or a trailing slash: left to open()'s own error
        return False
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        return True
    except OSError:  # the path cannot be resolved: left to open()'s own error
        return False


def _write_replacing(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over ``path``.

    A write that fails or is interrupted removes the new file and leaves
    ``path`` as it was.  The new file keeps the mode of the file it
    replaces, or gets the one ``open(path, "w")`` gives.  Where
    ``open(path, "w")`` would fail, or the directory takes no new file,
    nothing is written, and the error names ``path``.
    """
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        mode = None
    else:
        try:
            mode = stat.S_IMODE(os.fstat(fd).st_mode)
        finally:
            os.close(fd)
    temp = os.path.join(os.path.dirname(path), f".nullshadow-{os.getpid()}-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            _write_slices(fh, text)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:  # interrupted just after the rename
            pass
        raise


def _write_stdout(text: str) -> None:
    """Write to stdout and flush, so a full disk or a closed pipe fails here, not at exit."""
    if sys.stdout is None:  # the process was started with its stdout closed
        raise OSError(errno.EBADF, "stdout is closed")
    _write_slices(sys.stdout, text)
    sys.stdout.flush()


def _write_slices(fh: io.TextIOBase, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        fh.write(text[start : start + _WRITE_CHARS])


def _encoded_rows(rows: Sequence[Sequence[object]], encode: Callable[[Sequence], str], sep: str = "") -> list[str]:
    """The table's text as pieces: ``encode`` of each chunk of _CHUNK_ROWS rows, in order, ``sep`` between two.

    The rows are split at chunk boundaries into ``_parts(len(rows))``
    contiguous parts.  This process encodes the first part while a helper
    process forked for each other part encodes that part; their texts are
    read back in order, each from its helper's pipe.  A part whose helper
    was not made or did not exit 0 is encoded here, so the pieces join to
    the same text, and raise the same error, as with no helper.  An
    exception, KeyboardInterrupt included, SIGKILLs and reaps every helper
    still running before it propagates.
    """
    n_rows, parts = len(rows), _parts(len(rows))
    bounds = [n_rows * i // parts // _CHUNK_ROWS * _CHUNK_ROWS for i in range(parts)] + [n_rows]
    helpers: dict[int, int] = {}  # pid: the read end of its pipe, for each helper not yet reaped
    try:
        later = [(_fork_helper(rows, start, stop, encode, sep, helpers), start, stop)
                 for start, stop in zip(bounds[1:-1], bounds[2:])]
        pieces = _encode_part(rows, bounds[0], bounds[1], encode, sep)
        for pid, start, stop in later:
            part = None if pid is None else _collect(pid, helpers)
            if part is None:
                part = _encode_part(rows, start, stop, encode, sep)
            pieces += [sep, *part]
    except BaseException:
        if helpers:
            _stop(helpers)
        raise
    return pieces


def _parts(n_rows: int) -> int:
    """How many processes encode a table of ``n_rows`` rows.

    One per usable CPU, and at most one per _PART_ROWS rows; one where
    ``os.fork`` is missing, or where this process has more than one thread
    (a forked child holds a copy of any lock another thread held) or no
    /proc to count them in.
    """
    parts = n_rows // _PART_ROWS
    if parts < 2 or not hasattr(os, "fork") or not _single_threaded():
        return 1
    return min(len(os.sched_getaffinity(0)), parts)


def _single_threaded() -> bool:
    """Whether this process has one OS thread; False where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _encode_part(rows: Sequence[Sequence[object]], start: int, stop: int, encode: Callable[[Sequence], str],
                 sep: str, parent: int | None = None) -> list[str]:
    """The pieces of rows start..stop-1, which begin a chunk and end one or the table.

    In a helper, ``parent`` is the pid it was forked from, and the helper
    gives up between two chunks once that process is gone.
    """
    pieces = []
    for first in range(start, stop, _CHUNK_ROWS):
        if parent is not None and os.getppid() != parent:
            raise ProcessLookupError("the process that reads this part is gone")
        pieces += [sep, encode(rows[first : first + _CHUNK_ROWS])]
    return pieces[1:]


def _fork_helper(rows: Sequence[Sequence[object]], start: int, stop: int, encode: Callable[[Sequence], str],
                 sep: str, helpers: dict[int, int]) -> int | None:
    """Fork a helper that writes the text of rows start..stop-1 to a pipe; its pid, recorded in ``helpers``.

    None when no pipe or process could be made.  The helper encodes its
    whole part before it writes any of it, and its whole body, from the
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
            pieces = _encode_part(rows, start, stop, encode, sep, parent)
            with open(write, "w", encoding="utf-8", newline="") as pipe:
                pipe.writelines(pieces)
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
    fd, decoder, pieces = helpers[pid], codecs.getincrementaldecoder("utf-8")(), []
    while block := os.read(fd, _READ_BYTES):
        pieces.append(decoder.decode(block))
    try:
        status = os.waitpid(pid, 0)[1]
    except ChildProcessError:  # reaped by the system, as under SIGCHLD's SIG_IGN: its status is unknown
        status = None
    del helpers[pid]
    os.close(fd)
    if status != 0:
        return None
    pieces.append(decoder.decode(b"", final=True))
    return pieces


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
    helpers.clear()


def _chunk_csv(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _chunk_json(rows: Sequence[Sequence[object]]) -> str:
    """The rows of one chunk, each laid out as in the record, comma-separated."""
    text = _ROWS_ENCODER.encode(rows)
    laid_out = f"{_ROW_START}{text[2:-2].replace(_ROW_BOUNDARY, _ROW_JOIN)}{_ROW_END}"
    return laid_out.replace(_EMPTY_ROW, "[]")
