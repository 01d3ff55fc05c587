import csv
import errno
import io
import itertools
import json
import math
import os
import signal
import time
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshadow import __version__, _parts, cli, output
from nullshadow.output import _CHUNK_ROWS, _PART_ROWS, ComputedRows, OutputRecord, render, write_record
from reference import load_schema, read_csv_table


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


def reference_csv(record):
    """The CSV format, byte for byte: one csv.writer over the header and every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    writer.writerows(record.rows[:])
    return buf.getvalue()


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


# A table of at least 2 * _PART_ROWS rows is split across forked helpers
# only in a process with one thread; this one has numpy's BLAS threads, so
# the tests below declare it single-threaded and set the usable CPUs, and
# with them the number of parts.  Python 3.12 warns of a fork under threads.
FORKS_UNDER_THREADS = pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks:DeprecationWarning")


def split_into(monkeypatch, parts):
    """Let render split a large table into ``parts`` parts here; the pids it forks, as it forks them."""
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


SPLIT_ROWS = 5 * _PART_ROWS + 1


def cli_record(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def split_records():
    conditional = cli_record(["conditional-state", "--p-excited", "0.5", "--horizon", "10", "--grid", str(SPLIT_ROWS)])
    decay = cli_record(["decay-ensemble", "--premeasure", "--p-excited", "1", "--n-atoms", "20", "--horizon", "4",
                        "--grid", str(SPLIT_ROWS), "--seed", "1"])
    # str cells, escaped in JSON and quoted in CSV, from the fourth part on
    strings = [[i, i / 3, EDGE_STRINGS[i % len(EDGE_STRINGS)] if i >= 3 * _PART_ROWS else None]
               for i in range(SPLIT_ROWS)]
    return {"conditional-state": conditional, "decay-premeasure": decay, "strings": table_record(strings)}


@pytest.fixture(scope="module")
def records():
    return split_records()


def test_the_premeasure_nulls_start_after_the_first_of_two_parts(records):
    survivor = [row[-1] for row in records["decay-premeasure"].rows[:]]
    assert len(survivor) // 2 < survivor.index(None) < len(survivor)


@FORKS_UNDER_THREADS
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", ["conditional-state", "decay-premeasure", "strings"])
def test_a_split_table_renders_the_bytes_of_one_process(name, fmt, records, monkeypatch):
    record = records[name]
    expected = (reference_json if fmt == "json" else reference_csv)(record)
    for parts in (1, 2, 3, 5):
        forks = split_into(monkeypatch, parts)
        assert render(record, fmt) == expected, parts
        assert len(forks) == parts - 1


# A helper's text is read in blocks that may end inside a character.
@FORKS_UNDER_THREADS
def test_characters_split_between_reads_of_a_pipe_arrive_whole(monkeypatch):
    record = table_record([[i, "\u00e9\u20ac\U0001d11e", None] for i in range(2 * _PART_ROWS)])
    forks = split_into(monkeypatch, 2)
    monkeypatch.setattr(_parts, "_READ_BYTES", 5)
    assert render(record, "csv") == reference_csv(record)
    assert len(forks) == 1


def _in_helpers(monkeypatch, fail):
    """Make ``fail()`` run in every helper as it encodes its first JSON chunk."""
    parent, encode = os.getpid(), output._chunk_json

    def chunk_json(rows):
        if os.getpid() != parent:
            fail()
        return encode(rows)

    monkeypatch.setattr(output, "_chunk_json", chunk_json)


def _raise_memory_error():
    raise MemoryError


HELPER_FAILURES = {
    "memory-error": _raise_memory_error,
    "exit-1": lambda: os._exit(1),
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


# A helper that fails costs time only: this process encodes its part again.
@FORKS_UNDER_THREADS
@pytest.mark.parametrize("failure", HELPER_FAILURES)
def test_a_failed_helper_leaves_the_same_text(failure, records, monkeypatch):
    record = records["conditional-state"]
    expected = reference_json(record)
    forks = split_into(monkeypatch, 3)
    _in_helpers(monkeypatch, HELPER_FAILURES[failure])
    assert render(record, "json") == expected
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse(*args):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


# With no pipe or no process to be had, as under RLIMIT_NPROC, every part
# is encoded here.
@FORKS_UNDER_THREADS
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_helper_that_cannot_be_made_leaves_the_same_text(call, records, monkeypatch):
    record = records["conditional-state"]
    split_into(monkeypatch, 3)
    monkeypatch.setattr(os, call, _refuse)
    assert render(record, "json") == reference_json(record)


# A helper killed halfway through writing its text leaves a short stream.
@FORKS_UNDER_THREADS
def test_a_helper_killed_while_it_writes_leaves_the_same_text(records, monkeypatch):
    record = records["strings"]
    expected = reference_csv(record)
    forks = split_into(monkeypatch, 2)
    parent = os.getpid()

    class HalfWritten(io.TextIOWrapper):
        def writelines(self, pieces):
            super().writelines(pieces[: len(pieces) // 2])
            self.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    def pipe_open(fd, *args, **kwargs):
        if os.getpid() == parent:
            return open(fd, *args, **kwargs)
        return HalfWritten(open(fd, "wb"), encoding="utf-8", newline="")

    monkeypatch.setattr(_parts, "open", pipe_open, raising=False)
    assert render(record, "csv") == expected
    assert len(forks) == 1


# A caller that ignores SIGCHLD has its children reaped by the system, so no
# helper's exit status can be read, and every part is encoded again here.
@FORKS_UNDER_THREADS
def test_helpers_reaped_by_the_system_leave_the_same_text(records, monkeypatch):
    record = records["conditional-state"]
    forks = split_into(monkeypatch, 3)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert render(record, "json") == reference_json(record)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 2


# The serial path's error, from the part that holds the first bad cell.
@FORKS_UNDER_THREADS
def test_a_non_finite_float_in_the_last_part_exits_2_as_in_one_process(monkeypatch, capsys):
    table = float_table(3 * _PART_ROWS + 1)
    table[-2, 1] = math.inf
    record = table_record(array_rows(table))
    split_into(monkeypatch, 1)
    with pytest.raises(ValueError) as serial:
        render(record, "json")
    forks = split_into(monkeypatch, 3)
    with pytest.raises(ValueError) as split:
        render(record, "json")
    assert str(split.value) == str(serial.value) and len(forks) == 2
    monkeypatch.setattr(cli, "cmd_conditional_state", lambda args: record)
    assert cli.main(["conditional-state", "--p-excited", "0.5", "--horizon", "1"]) == 2
    assert capsys.readouterr() == ("", f"nullshadow: error: {serial.value}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# An exception here, an interrupt included, SIGKILLs and reaps the helpers
# that still run; each of these would sleep for a minute.
@FORKS_UNDER_THREADS
def test_an_interrupt_while_helpers_run_leaves_no_process(records, monkeypatch):
    forks = split_into(monkeypatch, 3)
    parent, encode = os.getpid(), output._chunk_json

    def chunk_json(rows):
        if os.getpid() != parent:
            time.sleep(60)
        elif forks:
            raise KeyboardInterrupt
        return encode(rows)

    monkeypatch.setattr(output, "_chunk_json", chunk_json)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        render(records["conditional-state"], "json")
    assert len(forks) == 2 and time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_process_without_fork_or_proc_encodes_alone(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(_parts, "_single_threaded", lambda: True)
    assert _parts._count(SPLIT_ROWS, _PART_ROWS) == 4
    assert _parts._count(2 * _PART_ROWS - 1, _PART_ROWS) == 1
    monkeypatch.delattr(os, "fork")
    assert _parts._count(SPLIT_ROWS, _PART_ROWS) == 1
    monkeypatch.undo()

    def no_proc(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert _parts._single_threaded() is False
