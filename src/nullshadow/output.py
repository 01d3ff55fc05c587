"""Machine-readable run records: one table plus scalars per scenario.

Two formats, both byte-deterministic for a given record:

  * JSON: a single object carrying scenario name, simulator version,
    seed, config echo, summary scalars, and the table; validates
    against ``schemas/output_record.schema.json``.
  * CSV: the table only (RFC-4180 quoting, LF line endings, header
    first).  Config echo lives in the JSON format.

Floats are written with Python repr semantics (shortest decimal that
round-trips), so parsing a file back reproduces every value exactly.
NaN is mapped to null / an empty cell to keep the JSON standard.

A record holds plain Python values; its producer turns numpy ones into
them.  A table is encoded a few hundred rows at a time, from contiguous
slices of its rows.  A table whose rows are pure functions of their
index, or slices of an array, may be a ``ComputedRows``, a length and a
contiguous slice computed when asked for, so no more than one chunk of
its rows exists at once.  The record text is built by one join of its
pieces and written in slices, so rendering and writing peak at about
two copies of the text.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence

from . import __version__

SCHEMA_RESOURCE = "output_record.schema.json"


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
# Characters per write call, so encoding to UTF-8 copies one slice at a time.
_WRITE_CHARS = 1 << 20


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        head = {
            "scenario": record.scenario,
            "version": __version__,
            "seed": record.seed,
            "config": _plain(record.config),
            "summary": _plain(record.summary),
            "columns": list(record.columns),
        }
        text = json.dumps(head, indent=2, allow_nan=False)
        return "".join([text[: -len("\n}")], ',\n  "rows": ', *_rows_json(record.rows), "\n}\n"])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.columns)
        for chunk in _chunks(record.rows):
            writer.writerows([_cell(v) for v in row] for row in chunk)
        return buf.getvalue()
    raise ValueError(f"unknown output format {fmt!r}")


def write_record(record: OutputRecord, path: str | None, fmt: str) -> None:
    """Write to a file, or to stdout when no path is given."""
    text = render(record, fmt)
    if path is None:
        _write_stdout(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_slices(fh, text)


def _write_stdout(text: str) -> None:
    """Write to stdout and flush, so a full disk or a closed pipe fails here, not at exit."""
    if sys.stdout is None:  # the process was started with its stdout closed
        raise OSError(errno.EBADF, "stdout is closed")
    _write_slices(sys.stdout, text)
    sys.stdout.flush()


def _write_slices(fh: io.TextIOBase, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        fh.write(text[start : start + _WRITE_CHARS])


def load_schema() -> dict[str, object]:
    """The JSON schema that every JSON record must satisfy."""
    from importlib import resources

    text = resources.files("nullshadow.schemas").joinpath(SCHEMA_RESOURCE).read_text("utf-8")
    return json.loads(text)


def _chunks(rows: Sequence[Sequence[object]]) -> Iterator[Sequence[Sequence[object]]]:
    """The table in runs of _CHUNK_ROWS rows."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        yield rows[start : start + _CHUNK_ROWS]


def _rows_json(rows: Sequence[Sequence[object]]) -> list[str]:
    """Pieces of the table as json.dumps(indent=2) lays it out inside the record."""
    pieces = []
    for chunk in _chunks(rows):
        pieces += [_ROW_SEP, _chunk_json(chunk)]
    if not pieces:
        return ["[]"]
    pieces[0] = "[\n    "
    pieces.append("\n  ]")
    return pieces


def _chunk_json(rows: Sequence[Sequence[object]]) -> str:
    """The rows of one chunk, each laid out as in the record, comma-separated."""
    try:
        text = _ROWS_ENCODER.encode(rows)
    except ValueError:  # a NaN or infinite cell
        rows = _plain(rows)
        try:
            text = _ROWS_ENCODER.encode(rows)
        except ValueError:
            # The C encoder leaves the value out; name it as json.dumps does.
            bad = next((v for row in rows for v in row if v in (math.inf, -math.inf)), None)
            if bad is None:
                raise
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}") from None
    laid_out = f"{_ROW_START}{text[2:-2].replace(_ROW_BOUNDARY, _ROW_JOIN)}{_ROW_END}"
    return laid_out.replace(_EMPTY_ROW, "[]")


def _plain(value: object) -> object:
    """The value with every NaN in it as None, JSON's null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
