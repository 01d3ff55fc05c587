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
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Any

from . import __version__

SCHEMA_RESOURCE = "output_record.schema.json"


@dataclass
class OutputRecord:
    scenario: str
    seed: int | None
    config: dict[str, Any]
    summary: dict[str, Any]
    columns: list[str]
    rows: list[list[Any]]


# With no indent the C encoder runs; this item separator puts every cell
# on its own line at the depth indent=2 gives a cell of a row.  JSON
# escapes newlines inside strings, so with scalar cells (the schema's
# rule) "]" + separator + "[" occurs only between two rows.
_CELL_SEP = ",\n      "
_ROW_BOUNDARY = "]" + _CELL_SEP + "["
_ROWS_ENCODER = json.JSONEncoder(separators=(_CELL_SEP, ": "), allow_nan=False)


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
        return text[: -len("\n}")] + ',\n  "rows": ' + _rows_json(record.rows) + "\n}\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.columns)
        for row in record.rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    raise ValueError(f"unknown output format {fmt!r}")


def write_record(record: OutputRecord, path: str | None, fmt: str) -> None:
    """Write to a file, or to stdout when no path is given."""
    text = render(record, fmt)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def read_csv_table(path: str) -> tuple[list[str], list[list[Any]]]:
    """Parse a CSV written by :func:`write_record` back into typed cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_parse_cell(v) for v in row] for row in reader]
    return header, rows


def load_schema() -> dict[str, Any]:
    """The JSON schema that every JSON record must satisfy."""
    text = resources.files("nullshadow.schemas").joinpath(SCHEMA_RESOURCE).read_text("utf-8")
    return json.loads(text)


def _rows_json(rows: list[list[Any]]) -> str:
    """The table as json.dumps(indent=2) lays it out inside the record."""
    try:
        text = _ROWS_ENCODER.encode(rows)
    except (ValueError, TypeError):  # a NaN or numpy cell
        rows = _plain(rows)
        try:
            text = _ROWS_ENCODER.encode(rows)
        except ValueError:
            # The C encoder leaves the value out; name it as json.dumps does.
            bad = next((v for row in rows for v in row if v in (math.inf, -math.inf)), None)
            if bad is None:
                raise
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}") from None
    if text == "[]":
        return text
    return "[\n    " + ",\n    ".join(
        "[\n      " + row + "\n    ]" if row else "[]" for row in text[2:-2].split(_ROW_BOUNDARY)
    ) + "\n  ]"


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays and NaN into JSON-safe plain Python."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _cell(value: Any) -> str:
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str) -> Any:
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
