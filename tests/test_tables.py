"""Lossless table round-trips and parser diagnostics."""

import json
import os
import random
import struct
import tracemalloc
from array import array

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finopt import tables
from finopt.errors import ProfileFormatError
from finopt.tables import (
    CHUNK_BYTES,
    CHUNK_ROWS,
    read_profile_csv,
    write_json,
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


def two_d_dump_table(header, *columns):
    """The CSV bytes of the whole table as one 2-D orjson dump, its
    [[a,b],[c,d]] cut into the lines a,b and c,d: the flat formatter's
    oracle."""
    rows = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)
    return (",".join(header) + "\n").encode() + text.replace(b"],[", b"\n")[2:-2] + b"\n"


# Values that orjson spells at its edges: signed zeros, the smallest
# subnormal, the largest double, whole numbers on both sides of 1e16.
SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308, 1.0, -1.0, 1e16, -1e16, 1e15,
                           1e17, 2.0**53, 123456789.0, 0.1, 1e-7])


def drawn_column(rng, rows):
    """rows finite doubles, each a special value, a subnormal, a whole
    number or a double of random bits."""
    bits = rng.integers(0, 2**64, rows, dtype=np.uint64)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 1.5
    kind = rng.integers(0, 4, rows)
    subnormal = rng.integers(1, 2**52, rows, dtype=np.uint64).view(np.float64)
    whole = rng.integers(-10**17, 10**17, rows).astype(float)
    values = np.where(kind == 0, rng.choice(SPECIAL_FLOATS, rows), values)
    values = np.where(kind == 1, subnormal * rng.choice([-1.0, 1.0], rows), values)
    return np.where(kind == 2, whole, values)


class TestFlatFormatter:
    # 10 seeds of 500 tables, each written over the one before, so that
    # longer and shorter tables are written over each other too.
    @pytest.mark.parametrize("seed", range(10))
    def test_bytes_equal_the_two_d_dump(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "table.csv"
        for _ in range(500):
            fields = int(rng.integers(1, 4))
            rows = int(rng.choice([1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   2 * CHUNK_ROWS + 1]))
            header = ("x", "t", "t_half")[:fields]
            columns = [drawn_column(rng, rows) for _ in range(fields)]
            write_table_csv(path, header, *columns)
            assert path.read_bytes() == two_d_dump_table(header, *columns)


def write_csv(path, value, rows):
    write_table_csv(path, ("x", "t"), np.arange(rows, dtype=float), np.full(rows, value))


def write_json_table(path, value, rows):
    write_table_json(path, ("x", "t"), np.arange(rows, dtype=float), np.full(rows, value))


def write_payload(path, value, rows):
    write_json(path, {"value": value, "rows": [value] * rows, "name": "fin"})


WRITERS = pytest.mark.parametrize("write", [write_csv, write_json_table, write_payload],
                                  ids=["csv", "json-table", "json"])


class TestRewrite:
    """Every writer writes over the old file's bytes and cuts it after its own."""

    @WRITERS
    @pytest.mark.parametrize("old_rows, new_rows", [(3 * CHUNK_ROWS, 5), (5, 3 * CHUNK_ROWS)],
                             ids=["shorter-over-longer", "longer-over-shorter"])
    def test_file_holds_exactly_the_new_bytes(self, tmp_path, write, old_rows, new_rows):
        fresh = tmp_path / "fresh"
        write(fresh, 0.25, new_rows)
        path = tmp_path / "table"
        write(path, 7.0, old_rows)
        write(path, 0.25, new_rows)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("write", [write_csv, write_json_table], ids=["csv", "json-table"])
    def test_write_that_raises_leaves_no_old_byte(self, tmp_path, monkeypatch, write):
        fresh = tmp_path / "fresh"
        write(fresh, 0.25, 3 * CHUNK_ROWS)
        path = tmp_path / "table"
        write(path, 7.0, 4 * CHUNK_ROWS)
        row_chunks = tables._row_chunks

        def first_chunk_only(columns):
            chunks = row_chunks(columns)
            yield next(chunks)
            raise RuntimeError("write stopped")

        monkeypatch.setattr(tables, "_row_chunks", first_chunk_only)
        with pytest.raises(RuntimeError, match="write stopped"):
            write(path, 0.25, 3 * CHUNK_ROWS)
        # The file is the new table up to its first chunk, and no more.
        written = path.read_bytes()
        new = fresh.read_bytes()
        assert new.startswith(written)
        assert written.count(b"0.25") == CHUNK_ROWS
        assert len(written) < len(new) // 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refused_table_leaves_the_old_file(self, tmp_path, value):
        path = tmp_path / "table.csv"
        write_csv(path, 7.0, 5)
        old = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, value, 5)
        assert path.read_bytes() == old

    @WRITERS
    def test_links_are_written_through_and_kept(self, tmp_path, write):
        fresh = tmp_path / "fresh"
        write(fresh, 0.25, 5)
        target = tmp_path / "target"
        write(target, 7.0, 3 * CHUNK_ROWS)
        inode = target.stat().st_ino
        hard = tmp_path / "hard"
        os.link(target, hard)
        link = tmp_path / "link"
        link.symlink_to(target)
        write(link, 0.25, 5)
        assert link.is_symlink()
        assert target.stat().st_ino == hard.stat().st_ino == inode
        assert target.read_bytes() == hard.read_bytes() == fresh.read_bytes()

    @WRITERS
    def test_symlink_to_dev_null_is_written(self, tmp_path, write):
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        write(link, 0.25, 3 * CHUNK_ROWS)
        assert link.is_symlink()
        assert link.read_bytes() == b""

    @WRITERS
    @pytest.mark.parametrize("mask", [0o002, 0o027])
    def test_new_file_gets_the_mode_of_open_wb(self, tmp_path, write, mask):
        umask = os.umask(mask)
        try:
            write(tmp_path / "table", 0.25, 5)
            with open(tmp_path / "opened", "wb"):
                pass
        finally:
            os.umask(umask)
        assert (tmp_path / "table").stat().st_mode == (tmp_path / "opened").stat().st_mode

    def test_json_writer_over_a_longer_file_equals_json_dumps(self, tmp_path):
        payload = {"result": {"length": 0.1, "theta": [1e-07, -0.0, 1e16, float("nan")]},
                   "checks": [{"name": "area_err", "pass": True}], "text": "é"}
        path = tmp_path / "report.json"
        write_payload(path, 7.0, 2000)
        write_json(path, payload)
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
        self.assert_reads_in_bounded_memory(tmp_path, "\n")

    # A file that ends its lines in \r alone holds no \n: a reader that
    # waited for one would hold the whole file.
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_in_bounded_memory(self, tmp_path, newline):
        self.assert_reads_in_bounded_memory(tmp_path, newline)

    @staticmethod
    def assert_reads_in_bounded_memory(tmp_path, newline):
        # 1e5 rows hold 1.6 MB of x and t; the reader keeps no text, list
        # of lines or Python float per row beside them, only one block.
        path = tmp_path / "long.csv"
        x = np.linspace(0.0, 0.2, 100_001)
        write_profile_csv(path, x, (0.2 - x) ** 2)
        if newline != "\n":
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
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


def loop_read(path):
    """The reader as one line loop: the file as text with universal
    newlines, every line through ``tables._parse_rows``."""
    with open(path, encoding="utf-8") as source:
        first = source.readline()
        if not first:
            raise ProfileFormatError(f"{path}: line 1: file is empty, expected a header")
        columns = tables._header_columns(path, first.rstrip("\n"))
        xs, ts, blanks = array("d"), array("d"), array("q")
        fault = tables._parse_rows(source, 2, columns, xs, ts, blanks)
    return tables._checked_columns(path, xs, ts, blanks, fault)


def outcome(read, path):
    """The bytes of x and t that read returns, or its error's text."""
    try:
        x, t = read(path)
    except ProfileFormatError as exc:
        return str(exc)
    return x.tobytes(), t.tobytes()


# Fields that orjson refuses or reads otherwise than float() (an int -0,
# ints past 2^53 and 2^64, whitespace), and fields that neither reads.
ODD_FIELDS = (
    "-0", "-0.0", "0", "-00", " 1", "1\t", "\u00a01", ".5", "-.5", "1.", "+1", "1_0",
    "00.5", "01", "inf", "-inf", "nan", "Infinity", "1e400", "-1e400", "1e-400",
    "-1e-400", "1E5", "1e+5", "9007199254740993", "18446744073709551615",
    "18446744073709551617", "-9223372036854775809", "-18446744073709551617", "1" + "0" * 400, "", "nope", "é", "1e", "-", "1,5",
    "true", "null", '"1"', "[1]", "{}",
)


def random_double(rng):
    """A finite double of random bits: every exponent, subnormals and zeros."""
    while True:
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if np.isfinite(value):
            return value


def spelled(rng, value):
    """A spelling of value that float() reads back to it."""
    kind = rng.randrange(6)
    if kind == 1:
        return repr(value).upper()
    if kind == 2:
        return "%.17g" % value
    if kind == 3:
        return "%.30e" % value  # more digits than a double holds
    if kind == 4 and value == int(value) and abs(value) < 2.0**70:
        return str(int(value))
    return repr(value)


def random_table(rng):
    """Bytes of a table that is mostly numbers, with faults at random."""
    header = rng.choice([("x", "t"), ("x", "t", "t_half"), ("t", "junk", "x")])
    rows = rng.randrange(26)
    scale = rng.choice([1.0, 1e-300, 1e300, 2.0**60])
    x = np.cumsum([rng.random() * scale + 1e-300 for _ in range(rows)]).tolist()
    if rng.random() < 0.2:  # values of every exponent, in order
        x = sorted({abs(random_double(rng)) for _ in range(rows)})
    odd_rate = rng.choice([0.0, 0.0, 0.02, 0.1])
    blank_rate = rng.choice([0.0, 0.0, 0.05])
    lines = [",".join(header)]
    for xi in x:
        values = {"x": xi, "t": abs(random_double(rng)) if rng.random() < 0.5
                  else rng.random()}
        fields = [spelled(rng, values.get(name, rng.random())) for name in header]
        fields = [rng.choice(ODD_FIELDS) if rng.random() < odd_rate else field
                  for field in fields]
        if rng.random() < odd_rate:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["1"]
        if rng.random() < blank_rate:
            lines.append(rng.choice(["", " ", "\t"]))
        lines.append(",".join(fields))
    newline = rng.choice(["\n", "\n", "\r\n", "\r"])
    text = newline.join(lines)
    if rng.random() < 0.8:
        text += newline
    if rng.random() < 0.1:  # mixed line ends
        text = text.replace(newline, rng.choice(["\n", "\r\n", "\r"]), 1)
    return text.encode()


class TestBlockReader:
    # 20 seeds of 1000 tables, each read in blocks of 1 to 80 bytes or in
    # the reader's own blocks, so that block edges fall anywhere.
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_line_loop(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        fast_blocks = []
        number_rows = tables._number_rows

        def counted(block, fields):
            rows = number_rows(block, fields)
            fast_blocks.append(rows is not None and len(rows) > 0)
            return rows

        monkeypatch.setattr(tables, "_number_rows", counted)
        path = tmp_path / "fuzz.csv"
        read = 0
        for _ in range(1000):
            path.write_bytes(random_table(rng))
            monkeypatch.setattr(tables, "CHUNK_BYTES",
                                rng.choice([rng.randint(1, 80), CHUNK_BYTES]))
            expected = outcome(loop_read, path)
            assert outcome(read_profile_csv, path) == expected, path.read_bytes()
            read += not isinstance(expected, str)
        # Both paths and both outcomes are drawn often.
        assert 200 < read < 900
        assert 0.1 < np.mean(fast_blocks) < 0.9

    @pytest.mark.parametrize("field", ["-0", "-0.0", "1e-400", "-1e-400", "0"])
    def test_zero_spellings_keep_their_sign(self, tmp_path, field):
        path = tmp_path / "zero.csv"
        path.write_text(f"x,t\n{field},1.0\n1,{field}\n")
        x, t = read_profile_csv(path)
        assert x.tobytes() + t.tobytes() == np.array(
            [float(field), 1.0, 1.0, float(field)]).tobytes()

    # Rows of 12 bytes after a 4-byte header fill the first block exactly:
    # line 5462 is its last line and line 5463 the first of the next.  A
    # header of 5 bytes splits line 5462 across the edge instead.
    @pytest.mark.parametrize("header, line", [("x,t", 5462), ("x,t", 5463),
                                              ("x, t", 5462)],
                             ids=["last-of-block", "first-of-block", "across-edge"])
    @pytest.mark.parametrize("row, message", [
        ("{},nop", "could not convert string to float: 'nop'"),
        ("{},-10", "negative thickness -10.0"),
        ("{},1,0", "expected 2 fields, got 3"),
        ("{}-1.0", "expected 2 fields, got 1"),
    ])
    def test_fault_at_a_block_edge_names_its_line(self, tmp_path, header, line, row, message):
        assert CHUNK_BYTES == 4 + 12 * 5461
        rows = [f"{1000000 + i},1.0" for i in range(2 * 5461)]
        rows[line - 2] = row.format(1000000 + line - 2)
        # A fault after it, of each kind, must not be named instead.
        rows[-2:] = ["1000000,1.0", "nope"]
        path = tmp_path / "edge.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: line {line}: {message}"
        assert outcome(loop_read, path) == str(info.value)

    def test_value_fault_in_a_number_block_before_a_loop_block(self, tmp_path):
        # The negative t lies in the first block, which orjson reads; the
        # unparsable row lies in the second.
        rows = [f"{1000000 + i},1.0" for i in range(2 * 5461)]
        rows[10] = "1000010,-1.0"
        rows[6000] = "1006000,oops"
        path = tmp_path / "two.csv"
        path.write_text("\n".join(["x,t", *rows]) + "\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: line 12: negative thickness -1.0"

    @pytest.mark.parametrize("text, line", [
        (b"x,t\n0,1\n\xff\xfe,2\n1,0\n", 3),
        (b"x,t\n0,1\n\n1,0\n2,\xc3\n", 5),
        (b"x,\xfft\n0,1\n1,0\n", 1),
    ], ids=["row", "truncated-sequence", "header"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, text, line):
        path = tmp_path / "binary.csv"
        path.write_bytes(text)
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value).startswith(f"{path}: line {line}: byte 0x")
        assert "is not UTF-8 text" in str(info.value)

    @pytest.mark.parametrize("row, message", [
        ("0.5,-1", "negative thickness -1.0"),
        ("0.5,oops", "could not convert string to float: 'oops'"),
        ("0.5", "expected 2 fields, got 1"),
    ])
    def test_earlier_fault_before_bytes_that_are_not_utf8(self, tmp_path, row, message):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"x,t\n0,1\n" + row.encode() + b"\n\xff,2\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("text", [b"\r", b"\n", b"\r\n"])
    def test_file_of_one_line_end_has_an_empty_header(self, tmp_path, text):
        path = tmp_path / "end.csv"
        path.write_bytes(text)
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: header must contain columns 'x' and 't', got ''"
        )

    def test_line_longer_than_a_block(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,pad,t\n0," + "1" * (3 * CHUNK_BYTES) + ",2\n1,0,0\n")
        x, t = read_profile_csv(path)
        assert x.tolist() == [0.0, 1.0] and t.tolist() == [2.0, 0.0]


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """One UTF-8 byte-order mark before the header is dropped; line numbers
    do not change, and a mark anywhere else is a fault of its line."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("header", ["x,t", "t,junk,x"])
    def test_table_reads_as_without_it(self, tmp_path, header, newline):
        rows = ["0.0,1.0", "0.5,2.0", "1.0,0.0"] if header == "x,t" else \
            ["1.0,9,0.0", "2.0,9,0.5", "0.0,9,1.0"]
        text = newline.join([header, *rows, ""]).encode()
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + text)
        x, t = read_profile_csv(path)
        assert x.tolist() == [0.0, 0.5, 1.0]
        assert t.tolist() == [1.0, 2.0, 0.0]

    def test_line_numbers_stay(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + b"x,t\n0,1\n\nnope,2\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == (
            f"{path}: line 4: could not convert string to float: 'nope'")

    def test_mark_on_a_data_line_is_its_fault(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"x,t\n" + BOM + b"0,1\n1,0\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == (
            f"{path}: line 2: could not convert string to float: '\\ufeff0'")

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + BOM + b"x,t\n0,1\n1,0\n")
        with pytest.raises(ProfileFormatError) as info:
            read_profile_csv(path)
        assert str(info.value) == (
            f"{path}: line 1: header must contain columns 'x' and 't', got '\\ufeffx,t'")

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tables_read_as_without_it(self, tmp_path, monkeypatch, seed):
        rng = random.Random(1000 + seed)
        path = tmp_path / "fuzz.csv"
        for _ in range(300):
            text = random_table(rng)
            monkeypatch.setattr(tables, "CHUNK_BYTES",
                                rng.choice([rng.randint(1, 80), CHUNK_BYTES]))
            path.write_bytes(text)
            plain = outcome(read_profile_csv, path)
            path.write_bytes(BOM + text)
            assert outcome(read_profile_csv, path) == outcome(loop_read, path) == plain
