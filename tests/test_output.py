import itertools
import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshadow import __version__, cli, output
from nullshadow.output import _CHUNK_ROWS, ComputedRows, OutputRecord, load_schema, render, write_record
from reference import read_csv_table


def reference_json(record):
    """The JSON format, byte for byte: json.dumps of the record at indent 2."""
    data = {
        "scenario": record.scenario,
        "version": __version__,
        "seed": record.seed,
        "config": record.config,
        "summary": record.summary,
        "columns": list(record.columns),
        "rows": record.rows[:],
    }
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def sample_record():
    return OutputRecord(
        scenario="ev",
        seed=7,
        config={"t1": 0.5, "blocker": "b", "shots": 3},
        summary={"p_d1": 0.2500000000000001, "missing": None},
        columns=["outcome", "probability", "count"],
        rows=[
            ["D1", 0.2500000000000001, 1],
            ["D2", 1 / 3, 0],
            ["Absorbed", None, 2],
        ],
    )


def test_json_round_trips_losslessly(tmp_path):
    path = tmp_path / "rec.json"
    write_record(sample_record(), str(path), "json")
    data = json.loads(path.read_text())
    assert data["rows"][0][1] == 0.2500000000000001
    assert data["rows"][1][1] == 1 / 3
    assert data["scenario"] == "ev"
    assert data["seed"] == 7
    assert data["version"]


# A value that does not exist, such as a NaN the simulation computes, is
# None in the record: its producer writes it so.
def test_nan_becomes_null_in_json():
    text = render(sample_record(), "json")
    data = json.loads(text)
    assert data["summary"]["missing"] is None
    assert data["rows"][2][1] is None
    assert "NaN" not in text


def test_csv_round_trips_losslessly(tmp_path):
    path = tmp_path / "rec.csv"
    write_record(sample_record(), str(path), "csv")
    header, rows = read_csv_table(str(path))
    assert header == ["outcome", "probability", "count"]
    assert rows[0] == ["D1", 0.2500000000000001, 1]
    assert rows[1][1] == 1 / 3
    assert rows[2][1] is None  # None serialized as an empty cell
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "outcome,probability,count"


def test_render_is_deterministic():
    rec = sample_record()
    assert render(rec, "json") == render(rec, "json")
    assert render(rec, "csv") == render(rec, "csv")


# Cells of every kind a table can hold, with the values where a float's
# text or a row boundary could go wrong pinned alongside random ones.  A
# summary may hold a bool as well.
EDGE_STRINGS = [", ", "], [", "]", "[", "a\nb", 'say "hi"', "", "\u00e9"]
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e22, 2**60, 1 / 3]),
    st.integers(),
    st.none(),
    st.sampled_from(EDGE_STRINGS),
    st.text(),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.lists(CELLS, max_size=5), max_size=6),
    summary=st.dictionaries(st.text(max_size=4), st.one_of(CELLS, st.booleans()), max_size=3),
)
@example(rows=[], summary={})
@example(rows=[[], []], summary={})
@example(
    rows=[
        [-0.0, 5e-324, 1e22, 2**60],
        [],
        [None, 0, None],
        EDGE_STRINGS,
    ],
    summary={"passed": True},
)
def test_json_render_is_byte_identical_to_indented_dumps(rows, summary):
    rec = OutputRecord(
        scenario="ev", seed=3, config={"t1": 0.5}, summary=summary, columns=["a", "b"], rows=rows
    )
    assert render(rec, "json") == reference_json(rec)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(sample_record(), "xml")


def test_schema_accepts_valid_record():
    data = json.loads(render(sample_record(), "json"))
    jsonschema.validate(data, load_schema())


def test_schema_rejects_malformed_record():
    data = json.loads(render(sample_record(), "json"))
    del data["columns"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema())


def test_float_cells_use_repr_precision():
    value = math.exp(-1.0)
    rec = OutputRecord(
        scenario="ev", seed=None, config={}, summary={}, columns=["x"], rows=[[value]]
    )
    line = render(rec, "csv").splitlines()[1]
    assert float(line) == value


def table_record(rows):
    return OutputRecord(
        scenario="conditional-state", seed=None, config={}, summary={}, columns=["t", "p", "q"], rows=rows
    )


def float_table(n_rows):
    t = np.linspace(0.0, 10.0, n_rows)
    return np.column_stack([t, np.exp(-t) / 3.0, 1.0 - np.exp(-t) / 3.0])


def array_rows(table):
    """The rows of a 2-D array as master-check hands them to its record."""
    return ComputedRows(len(table), lambda start, stop: table[start:stop].tolist())


C = _CHUNK_ROWS


# Both sides of one and two chunk boundaries, plus tables of many chunks
# that end one short of, on, and one past a boundary.
@pytest.mark.parametrize(
    "n_rows", sorted({0, 1, C - 1, C, C + 1, 2 * C + 1, 4095, 4096, 4097, 8193})
)
def test_array_and_list_tables_render_as_indented_dumps(n_rows):
    table = float_table(n_rows)
    expected = reference_json(table_record(table.tolist()))
    assert render(table_record(table.tolist()), "json") == expected
    assert render(table_record(array_rows(table)), "json") == expected


@pytest.mark.parametrize(
    "rows",
    [
        [[], []],
        [[] for _ in range(C + 1)],
        [[i] if i % 3 else [] for i in range(2 * C + 1)],
        [[] if i in (C - 1, C) else [float(i), "x"] for i in range(C + 2)],
    ],
    ids=["two", "chunk-plus-one", "every-third", "across-the-boundary"],
)
def test_empty_rows_render_as_indented_dumps(rows):
    rec = table_record(rows)
    assert render(rec, "json") == reference_json(rec)


def test_nan_in_the_last_chunk_becomes_null():
    rows = float_table(2 * C + 1).tolist()
    rows[-1][1] = None
    rec = table_record(rows)
    text = render(rec, "json")
    assert text == reference_json(rec)
    assert json.loads(text)["rows"][-1] == [10.0, None, rows[-1][2]]
    assert render(rec, "csv").splitlines()[-1] == f"10.0,,{rows[-1][2]!r}"


# Rows are encoded as they are, so a non-finite float, which no subcommand
# puts in a table, fails the JSON render with one line, NaN as well.
def test_infinite_cell_in_a_later_chunk_exits_2(monkeypatch, capsys):
    table = float_table(2 * C + 1)
    for bad, rows in itertools.product([math.inf, -math.inf, math.nan], [array_rows, np.ndarray.tolist]):
        table[C + 5, 2] = bad
        monkeypatch.setattr(cli, "cmd_conditional_state", lambda args: table_record(rows(table)))
        assert cli.main(["conditional-state", "--p-excited", "0.5", "--horizon", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nullshadow: error: Out of range float values are not JSON compliant")
        assert captured.err.count("\n") == 1, captured.err


def test_csv_of_an_array_table_is_that_of_its_lists():
    table = float_table(2 * C + 1)
    text = render(table_record(array_rows(table)), "csv")
    assert text == render(table_record(table.tolist()), "csv")
    assert text.count("\n") == 2 * C + 2
    assert text.splitlines()[C + 1] == ",".join(repr(float(v)) for v in table[C])


def test_written_slices_join_to_the_render(monkeypatch, tmp_path, capsys):
    rec = table_record([["\u00e9\u00e9", 1 / 3, None]] * 9)
    text = render(rec, "json")
    monkeypatch.setattr(output, "_WRITE_CHARS", 7)
    path = tmp_path / "rec.json"
    write_record(rec, str(path), "json")
    write_record(rec, None, "json")
    assert path.read_bytes() == text.encode("utf-8")
    assert capsys.readouterr().out == text


def test_render_of_an_array_table_peaks_near_two_copies_of_the_text():
    rec = table_record(array_rows(float_table(100_001)))
    tracemalloc.start()
    try:
        text = render(rec, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), peak / len(text)



def test_computed_rows_compute_the_chunks_the_render_reads():
    calls = []

    def squares(start, stop):
        calls.append((start, stop))
        return [[i, i * i] for i in range(start, stop)]

    rows, whole = ComputedRows(2 * C + 1, squares), [[i, i * i] for i in range(2 * C + 1)]
    assert rows[7:3] == [] and rows[len(whole) :] == [] and calls == []
    assert rows[-2:] == whole[-2:] and rows[C - 1 : C + 1] == whole[C - 1 : C + 1]
    with pytest.raises(ValueError, match="contiguous"):
        rows[::2]
    assert calls == [(2 * C - 1, 2 * C + 1), (C - 1, C + 1)]
    calls.clear()
    assert render(table_record(rows), "json") == reference_json(table_record(whole))
    assert calls == [(0, C), (C, 2 * C), (2 * C, 2 * C + 1)]
    assert render(table_record(rows), "csv") == render(table_record(whole), "csv")
