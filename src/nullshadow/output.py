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
at once.  A large table's chunks may be encoded by several processes
(``_parts``); the bytes do not depend on how.  The record text is built
by one join of its pieces and written in slices, so rendering and
writing peak at about two copies of the text.  A record file is written
beside its path and renamed over it after the last byte, so a failed
write leaves no partial record.

Each format loads its own encoder when it renders: ``json`` for a JSON
record and ``csv`` for a CSV one, so importing this module loads neither.
"""

from __future__ import annotations

import errno
import io
import os
import stat
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence

from . import __version__
from ._parts import pieces


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
_ROW_START, _ROW_END, _ROW_SEP = "[\n      ", "\n    ]", ",\n    "
_ROW_JOIN = _ROW_END + _ROW_SEP + _ROW_START
_EMPTY_ROW = _ROW_START + _ROW_END

# Rows per encoder call: a chunk's Python lists and text are the only
# per-row copies besides the pieces of the record itself.  Freed copies of
# a few hundred KB (4096 rows) left heap holes worth ~3 MB of peak RSS.
_CHUNK_ROWS = 256
# A table of n rows is encoded in min(usable CPUs, n // _PART_ROWS) parts
# by as many processes, and in this one alone below two (``_parts``).
# Two parts rendered faster than one from ~1 500 rows on a shared 2-core
# VM, where a fork, its pipe and its reaping cost 0.6-1.4 ms; the helpers
# are forked one after another, so on a host of many CPUs larger parts
# keep that serial cost small beside the work each helper takes.  A part
# is at least one chunk, so none is empty.
_PART_ROWS = 2048
# Characters per write call, so encoding to UTF-8 copies one slice at a time.
_WRITE_CHARS = 1 << 20


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        import json  # here, so that a CSV run, --version and --help load no JSON encoder

        encode = json.JSONEncoder(separators=(_CELL_SEP, ": "), allow_nan=False).encode
        head = {
            "scenario": record.scenario,
            "version": __version__,
            "seed": record.seed,
            "config": record.config,
            "summary": record.summary,
            "columns": list(record.columns),
        }
        text = json.dumps(head, indent=2, allow_nan=False)
        # a chunk that does not start the table begins with the separator between two rows
        rows = pieces(len(record.rows), _CHUNK_ROWS, _PART_ROWS,
                      lambda a, b: (_ROW_SEP if a else "") + _chunk_json(encode, record.rows[a:b]))
        table = ["[\n    ", *rows, "\n  ]"] if rows else ["[]"]
        return "".join([text[: -len("\n}")], ',\n  "rows": ', *table, "\n}\n"])
    if fmt == "csv":
        rows = pieces(len(record.rows), _CHUNK_ROWS, _PART_ROWS, lambda a, b: _chunk_csv(record.rows[a:b]))
        return "".join([_chunk_csv([record.columns]), *rows])
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


def _chunk_csv(rows: Sequence[Sequence[object]]) -> str:
    import csv  # here, so that only a CSV run loads it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _chunk_json(encode: Callable[[object], str], rows: Sequence[Sequence[object]]) -> str:
    """The rows of one chunk, each laid out as in the record, comma-separated.

    ``encode`` is ``render``'s row encoder, which separates items by ``_CELL_SEP``.
    """
    text = encode(rows)
    laid_out = f"{_ROW_START}{text[2:-2].replace(_ROW_BOUNDARY, _ROW_JOIN)}{_ROW_END}"
    return laid_out.replace(_EMPTY_ROW, "[]")
