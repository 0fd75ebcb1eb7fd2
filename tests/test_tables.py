"""Lossless table round-trips and parser diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finopt.errors import ProfileFormatError
from finopt.tables import (
    CHUNK_ROWS,
    read_profile_csv,
    write_profile_csv,
    write_table_csv,
    write_table_json,
    write_temperature_csv,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

# Signed zeros, the smallest subnormal and normal, and extremes of exponent.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1e300, 0.1, 1.0)


def spell(directory, value):
    """value as the CSV writer spells it: the field of a one-row,
    one-column table written into directory."""
    path = directory / "one-value.csv"
    write_table_csv(path, ("v",), [value])
    return path.read_text().splitlines()[1]


def per_value_table(directory, header, *columns):
    """The CSV bytes written one value at a time: the chunked writers' oracle.

    Each distinct value (by its bits, so 0.0 and -0.0 apart) is spelled once.
    """
    spelled = {}

    def field(value):
        key = float(value).hex()
        if key not in spelled:
            spelled[key] = spell(directory, value)
        return spelled[key]

    lines = [",".join(header)] + [",".join(map(field, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def significant_digits(text):
    """The significant digits of a decimal spelling of a float: no sign,
    point, exponent, or leading and trailing zeros ("" for a zero)."""
    mantissa = text.lower().lstrip("-").partition("e")[0]
    return mantissa.replace(".", "").strip("0")


def assert_spells(text, value):
    """text reads back to value bit for bit and has the shortest digits
    that do, those of repr(value); the exponent's spelling is free."""
    value = float(value)
    assert float(text).hex() == value.hex(), (text, value)
    assert significant_digits(text) == significant_digits(repr(value)), (text, value)


def assert_table_spells(path, *columns):
    """Every field of the CSV table at path spells its column's value."""
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(columns[0])
    for line, row in zip(lines, zip(*columns)):
        fields = line.split(",")
        assert len(fields) == len(row)
        for field, value in zip(fields, row):
            assert_spells(field, value)


class TestFormatFloat:
    """How write_table_csv spells one float, read from one-row tables."""

    @given(value=finite_floats)
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shortest_digits_round_trip(self, tmp_path, value):
        assert_spells(spell(tmp_path, value), value)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_values_round_trip(self, tmp_path, value):
        assert_spells(spell(tmp_path, value), value)

    def test_exact_examples(self, tmp_path):
        assert spell(tmp_path, 0.1) == "0.1"
        assert spell(tmp_path, 1.0) == "1.0"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, tmp_path, value):
        path = tmp_path / "one-value.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_table_csv(path, ("v",), [value])
        assert not path.exists()


class TestChunkedWriters:
    @given(
        rows=st.sampled_from([1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
        drawn=st.lists(finite_floats, min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_per_value_formatting(self, tmp_path, rows, drawn, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(EDGE_FLOATS + tuple(drawn))
        x, t, theta = (rng.choice(pool, rows) for _ in range(3))

        path = tmp_path / "profile.csv"
        write_profile_csv(path, x, t)
        assert path.read_bytes() == per_value_table(
            tmp_path, ("x", "t", "t_half"), x, t, 0.5 * t)
        assert_table_spells(path, x, t, 0.5 * t)

        path = tmp_path / "temperature.csv"
        write_temperature_csv(path, x, theta)
        assert path.read_bytes() == per_value_table(tmp_path, ("x", "theta"), x, theta)
        assert_table_spells(path, x, theta)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "writer, header, column",
        [(write_profile_csv, ("x", "t"), 0), (write_profile_csv, ("x", "t"), 1),
         (write_temperature_csv, ("x", "theta"), 0),
         (write_temperature_csv, ("x", "theta"), 1)],
        ids=["profile-x", "profile-t", "temperature-x", "temperature-theta"],
    )
    def test_non_finite_value_is_refused(self, tmp_path, writer, header, column, value):
        # The first bad row is named, in a later chunk than the first, with
        # its column; a later bad row of the other column does not matter.
        # Nothing is written: a table with NaN or infinities cannot be read.
        columns = [np.arange(3 * CHUNK_ROWS, dtype=float), np.ones(3 * CHUNK_ROWS)]
        row = CHUNK_ROWS + 2
        columns[column][row] = value
        columns[1 - column][row + 3] = np.nan
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError) as info:
            writer(path, *columns)
        assert str(info.value) == (
            f"{path}: row {row}, column {header[column]!r}: "
            f"cannot write the non-finite value {value}"
        )
        assert not path.exists()

    @pytest.mark.parametrize("writer", [write_profile_csv, write_temperature_csv])
    def test_long_table_writes_in_bounded_memory(self, tmp_path, writer):
        # 1e5 rows are about 5 MB of text; beyond the n-long t/2 column
        # that write_profile_csv makes, the writers hold one chunk of it.
        x = np.linspace(0.0, 0.2, 100_001)
        y = (0.2 - x) ** 2
        made = x.nbytes if writer is write_profile_csv else 0
        tracemalloc.start()
        try:
            writer(tmp_path / "long.csv", x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - made < 2**19


class TestJsonTableWriter:
    @given(
        rows=st.sampled_from([1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
        drawn=st.lists(st.floats(width=64), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_equal_json_dumps(self, tmp_path, rows, drawn, seed):
        # json.dumps with indent, one float() per value, is the oracle;
        # NaN and the infinities must keep json's spelling.
        rng = np.random.default_rng(seed)
        pool = np.array(EDGE_FLOATS + (np.nan, np.inf, -np.inf) + tuple(drawn))
        x, t = (rng.choice(pool, rows) for _ in range(2))
        columns = ("x", "t", "t_half")
        path = tmp_path / "profile.json"
        write_table_json(path, columns, x, t, 0.5 * t)
        payload = {
            "columns": list(columns),
            "rows": [[float(v) for v in row] for row in zip(x, t, 0.5 * t)],
        }
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


class TestProfileRoundTrip:
    def test_write_then_read_recovers_exact_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.sort(rng.random(40))
        x[0] = 0.0
        t = rng.random(40)
        path = tmp_path / "profile.csv"
        write_profile_csv(path, x, t)
        x2, t2 = read_profile_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(t, t2)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        x = np.linspace(0.0, 0.2, 25)
        t = np.linspace(3e-3, 0.0, 25) ** 2
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_profile_csv(first, x, t)
        x2, t2 = read_profile_csv(first)
        write_profile_csv(second, x2, t2)
        assert first.read_bytes() == second.read_bytes()

    def test_many_chunks_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.random(16001))
        t = rng.random(16001) * 1e-3
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_profile_csv(first, x, t)
        x2, t2 = read_profile_csv(first)
        assert x2.tobytes() == x.tobytes()
        assert t2.tobytes() == t.tobytes()
        write_profile_csv(second, x2, t2)
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_half_profile_column(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,t_half"
        assert lines[1].split(",")[2] == "1.0"

    def test_temperature_header(self, tmp_path):
        path = tmp_path / "temp.csv"
        write_temperature_csv(path, np.array([0.0, 1.0]), np.array([5.0, 0.0]))
        assert path.read_text().splitlines()[0] == "x,theta"

    def test_extra_columns_ignored_on_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,junk,x\n1.0,9,0.0\n0.5,9,1.0\n")
        x, t = read_profile_csv(path)
        assert np.array_equal(x, [0.0, 1.0])
        assert np.array_equal(t, [1.0, 0.5])


class TestParserDiagnostics:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProfileFormatError, match="line 1"):
            read_profile_csv(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ProfileFormatError, match="line 1"):
            read_profile_csv(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1.0\nnope,2.0\n")
        with pytest.raises(ProfileFormatError, match="line 3"):
            read_profile_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1.0\n0.5\n")
        with pytest.raises(ProfileFormatError, match="line 3"):
            read_profile_csv(path)

    def test_decreasing_x_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1.0\n0.5,1.0\n0.25,1.0\n")
        with pytest.raises(ProfileFormatError, match="line 4"):
            read_profile_csv(path)

    def test_negative_thickness_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1.0\n0.5,-1.0\n")
        with pytest.raises(ProfileFormatError, match="negative"):
            read_profile_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1.0\n")
        with pytest.raises(ProfileFormatError, match="two data rows"):
            read_profile_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileFormatError, match="cannot read"):
            read_profile_csv(tmp_path / "nowhere.csv")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("x,t\n0.0,1.0\n\n1.0,2.0\n")
        x, t = read_profile_csv(path)
        assert len(x) == 2

    # Two faults in one file: the earliest line is named.  Within one line
    # the checks run field count -> parse -> finite -> negative -> increasing.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,t\n0.0,1.0\n0.5,-1.0\n0.75,1.0\n0.9\n", "line 3: negative thickness -1.0"),
            ("x,t\n0.0,1.0\n0.5\n0.75,1.0\n0.25,1.0\n", "line 3: expected 2 fields, got 1"),
            ("x,t\n0.0,1.0\n0.0,1.0\n0.5\n", "line 3: x must be strictly increasing"),
            ("x,t\n0.0,1.0\n0.5,nan\n0.25,-1.0\n", "line 3: non-finite value"),
            ("x,t\n0.0,1.0\n0.5,-inf\n", "line 3: non-finite value"),
            ("x,t\n0.0,1.0\nnan,1.0\n", "line 3: non-finite value"),
            ("x,t\n0.0,1.0\ninf,1.0\nnope,1.0\n", "line 3: non-finite value"),
            ("x,t\n0.0,1.0\n-0.5,-1.0\n", "line 3: negative thickness -1.0"),
            ("x,t\n0.0,1.0\nnope,-1.0\n",
             "line 3: could not convert string to float: 'nope'"),
            ("x,t\n0.0,1.0\nnope\n", "line 3: expected 2 fields, got 1"),
            ("x,t\n0.0,1.0\n\n0.5,-1.0\n0.9\n", "line 4: negative thickness -1.0"),
            ("x,t\n0.0,1.0\n  \n\n0.5\n", "line 5: expected 2 fields, got 1"),
        ],
        ids=[
            "negative-before-short-row",
            "short-row-before-decreasing",
            "decreasing-before-short-row",
            "nan-before-negative",
            "negative-inf",
            "nan-x",
            "inf-before-unparsable",
            "negative-before-decreasing",
            "parse-before-negative",
            "count-before-parse",
            "blank-line-counted",
            "blank-lines-counted-before-short-row",
        ],
    )
    def test_earliest_fault_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: {message}"


class TestStreamingReader:
    def test_long_table_reads_in_bounded_memory(self, tmp_path):
        # 1e5 rows hold 1.6 MB of x and t; the reader keeps no text, list
        # of lines or Python float per row beside them.
        path = tmp_path / "long.csv"
        x = np.linspace(0.0, 0.2, 100_001)
        write_profile_csv(path, x, (0.2 - x) ** 2)
        tracemalloc.start()
        try:
            x2, _ = read_profile_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x2.tobytes() == x.tobytes()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_endings_read_as_newlines(self, tmp_path, newline):
        text = "x,t\n0.0,1.0\n\n0.5,2.0\n1.0,0.0\n"
        path = tmp_path / "ends.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        x, t = read_profile_csv(path)
        assert np.array_equal(x, [0.0, 0.5, 1.0])
        assert np.array_equal(t, [1.0, 2.0, 0.0])

        bad = tmp_path / "bad.csv"
        bad.write_bytes((text + "\n1.5,oops\n").replace("\n", newline).encode())
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(bad)
        assert str(info.value) == (
            f"{bad}: line 7: could not convert string to float: 'oops'"
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5", "expected 3 fields, got 1"),
            ("0.5,oops,1", "could not convert string to float: 'oops'"),
            ("0.5,-1,1", "negative thickness -1.0"),
            ("0.5,inf,1", "non-finite value"),
            ("0.5,1,1", "x must be strictly increasing"),
        ],
    )
    def test_fault_after_thousands_of_rows_names_its_line(self, tmp_path, row, message):
        # Lines 2-5001 hold good rows (x from 1 to 2), 5002 is blank.
        path = tmp_path / "late.csv"
        x = np.linspace(1.0, 2.0, 5000)
        write_profile_csv(path, x, np.ones_like(x))
        with open(path, "a") as out:
            out.write(f"\n{row}\n\n4,1,1\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: line 5003: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,t\n\n\n0.0,1.0\n\n0.5,-1.0\n\n\n0.9,1.0\n",
             "line 6: negative thickness -1.0"),
            ("x,t\n\n0.0,1.0\n \n0.5,nope\n\n",
             "line 5: could not convert string to float: 'nope'"),
            ("x,t\n0.0,1.0\n\n\n0.5\n\n0.25,1.0\n", "line 5: expected 2 fields, got 1"),
            ("x,t\n\n0.0,1.0\n\t\n0.0,1.0\n\n", "line 5: x must be strictly increasing"),
            ("x,t\n0.0,1.0\n\n0.5,2.0\n\n\n0.25,1.0\n0.9\n",
             "line 7: x must be strictly increasing"),
        ],
        ids=["negative", "unparsable", "short-row", "repeated-x",
             "decreasing-before-short-row"],
    )
    def test_blank_lines_before_and_after_a_fault_count(self, tmp_path, text, message):
        path = tmp_path / "blanks.csv"
        path.write_text(text)
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["x,t\n", "x,t", "x,t\n\n\n"])
    def test_header_only_file(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text)
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: need at least two data rows, got 0"

    def test_header_line_is_named_without_its_newline(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: header must contain columns 'x' and 't', got 'a,b'"
        )

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                           "\x85", " ", " "])
    def test_only_newlines_separate_rows(self, tmp_path, separator):
        # str.splitlines would also break at these; a row ends only at
        # \n, \r\n or \r.
        path = tmp_path / "sep.csv"
        path.write_text(f"x,t\n0.0,1.0{separator}0.5,2.0\n1.0,0.0\n", encoding="utf-8")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: line 2: expected 2 fields, got 3"
