"""Reading and writing of the on-disk table formats.

Both formats are lossless.  CSV tables write every float with the
shortest digits that read back to it (``0.1``, ``1.0``, ``1e-7``), as
orjson's Ryu formatter spells them, so parse -> format is the identity on
the file bytes.  They refuse NaN and infinities, which could not be read
back.  JSON files hold the same shortest digits in Python's repr spelling
(``1e-07``), byte for byte as ``json.dumps(indent=2)`` writes it.  Data
tables never carry timestamps or other run metadata; identical inputs
must produce identical files.

Table I/O takes memory bounded by a chunk, not by the table, beyond the
arrays it is given or returns.  The CSV and JSON table writers stage one
chunk of ``CHUNK_ROWS`` rows at a time in a (CHUNK_ROWS, columns) buffer,
format it with one call (``orjson.dumps`` for CSV, one ``%`` operation for
JSON) and stream it through one open file.
The reader streams the open file line by line: it splits each line and
appends its x and t to two ``array('d')`` buffers, which numpy then views
without a copy.  It keeps no text of the file, no list of lines and no
Python float per row; only blank lines are remembered, by the row they
precede, so that an error can name its line.  Finiteness, sign and
ordering are then checked on the whole arrays.  Lines end at ``\n``,
``\r\n`` or ``\r`` (Python's universal newlines); other characters that
``str.splitlines`` would break at, such as form feed, stay inside a line.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np
import orjson

from .errors import ProfileFormatError


# Rows formatted per write: large enough to amortise the call, small
# enough that the chunk's text stays well under a MiB.  orjson grows its
# output in fourfold steps (16, 64, 256 KiB).  A row of three values of at
# most 24 characters ("-2.2250738585072014e-308") takes at most 77 bytes
# of that output, so 512 rows fit the 64 KiB step; the closed-form
# profile's 1024 rows, about 67 KB, would take 256 KiB.
CHUNK_ROWS = 512


def _float_columns(columns) -> list[np.ndarray]:
    """The columns as float arrays, checked to be 1D and of one length."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    shape = columns[0].shape
    if len(shape) != 1 or any(column.shape != shape for column in columns):
        raise ValueError(f"table columns must be 1D of one length, got "
                         f"{[column.shape for column in columns]}")
    return columns


def _row_chunks(columns: list[np.ndarray]) -> Iterator[np.ndarray]:
    """The rows of the table whose columns are given, CHUNK_ROWS at a time.

    Each chunk is a C-contiguous (rows, columns) view of one staging
    buffer that the next chunk overwrites, so the whole table is never
    stacked.
    """
    rows_total = len(columns[0])
    staged = np.empty((min(rows_total, CHUNK_ROWS), len(columns)))

    def stage(start: int) -> np.ndarray:
        rows = min(CHUNK_ROWS, rows_total - start)
        for j, column in enumerate(columns):
            staged[:rows, j] = column[start:start + rows]
        return staged[:rows]

    return map(stage, range(0, rows_total, CHUNK_ROWS))


def _refuse_non_finite(path: Path, header: Sequence[str],
                       columns: list[np.ndarray]) -> None:
    """Raise ValueError naming the first row, and its first column, that
    holds NaN or an infinity.

    min and max propagate NaN and reach the infinities, so a finite table
    is checked without a mask; only a table that fails makes one.
    """
    bad = [(int(np.argmin(np.isfinite(column))), j)
           for j, column in enumerate(columns)
           if column.size and not np.isfinite([column.min(), column.max()]).all()]
    if bad:
        row, j = min(bad)
        raise ValueError(f"{path}: row {row}, column {header[j]!r}: cannot write "
                         f"the non-finite value {columns[j][row]}")


def write_table_csv(path: Path, header: Sequence[str], *columns) -> None:
    """CSV table of the given columns under the header; a ValueError names
    the first non-finite value, and nothing is written.

    One orjson call per chunk: its [[a,b],[c,d]] becomes the lines a,b and c,d.
    """
    columns = _float_columns(columns)
    _refuse_non_finite(path, header, columns)
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        for chunk in _row_chunks(columns):
            text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
            out.write(memoryview(text.replace(b"],[", b"\n"))[2:-2])
            out.write(b"\n")


def write_profile_csv(path: Path, x: np.ndarray, t: np.ndarray) -> None:
    """Profile table: x, full thickness, and the half-profile t/2."""
    write_table_csv(path, ("x", "t", "t_half"), x, t, 0.5 * np.asarray(t))


def write_temperature_csv(path: Path, x: np.ndarray, theta: np.ndarray) -> None:
    write_table_csv(path, ("x", "theta"), x, theta)


def write_table_json(path: Path, header: Sequence[str], *columns) -> None:
    """{"columns": header, "rows": [...]}: for one row or more, the bytes of
    json.dumps(indent=2).

    Rows are formatted a chunk at a time with one ``%r`` operation, the
    float repr json writes, so the pure-Python encoder that ``indent``
    selects never sees them; only NaN and infinities need json's spelling.
    """
    names = ",\n".join("    " + json.dumps(name) for name in header)
    row = "    [\n" + ",\n".join(["      %r"] * len(columns)) + "\n    ]"
    chunks = _row_chunks(_float_columns(columns))
    with open(path, "w") as out:
        out.write(f'{{\n  "columns": [\n{names}\n  ],\n  "rows": [\n')
        separator = ""
        for chunk in chunks:
            text = ",\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
            if not np.isfinite(chunk).all():
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            out.write(separator + text)
            separator = ",\n"
        out.write("\n  ]\n}\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile table with at least the columns x and t.

    Extra columns (like t_half) are ignored.  Errors name the earliest
    offending line, counting from 1 at the header; blank lines count.
    The file is streamed, so memory grows only by the 16 bytes of each
    row's x and t.
    """
    try:
        with open(path) as source:
            xs, ts, blanks, fault = _parse_rows(path, source)
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path}: {exc}") from exc

    x, t = np.frombuffer(xs), np.frombuffer(ts)
    # A bad value on a row before the unparsable one is the earlier fault.
    bad = _first_bad_row(x, t)
    if bad is not None:
        row, message = bad
        line = row + 2 + bisect_right(blanks, row)
        raise ProfileFormatError(f"{path}: line {line}: {message}")
    if fault is not None:
        lineno, message, cause = fault
        raise ProfileFormatError(f"{path}: line {lineno}: {message}") from cause
    if len(x) < 2:
        raise ProfileFormatError(f"{path}: need at least two data rows, got {len(x)}")
    return x, t


def _parse_rows(
    path: Path, source: TextIO
) -> tuple[array, array, array, tuple | None]:
    """(xs, ts, blanks, fault) of a table's lines, up to the first that fails
    to parse.

    xs and ts hold x and t of each row; blanks holds, for each blank line,
    the number of rows before it; fault is (line, message, cause) of the
    first line that does not parse, or None.
    """
    first = source.readline()
    if not first:
        raise ProfileFormatError(f"{path}: line 1: file is empty, expected a header")
    first = first.rstrip("\n")
    header = [name.strip() for name in first.split(",")]
    if "x" not in header or "t" not in header:
        raise ProfileFormatError(
            f"{path}: line 1: header must contain columns 'x' and 't', got {first!r}"
        )
    ix = header.index("x")
    it = header.index("t")

    fields = len(header)
    xs, ts, blanks = array("d"), array("d"), array("q")
    for lineno, line in enumerate(source, start=2):
        parts = line.split(",")
        if len(parts) != fields:
            if not line.strip():
                blanks.append(len(xs))
                continue
            fault = (lineno, f"expected {fields} fields, got {len(parts)}", None)
            return xs, ts, blanks, fault
        try:
            x = float(parts[ix])
            t = float(parts[it])
        except ValueError:
            # float() ignores the line's newline but would quote it.
            cause = _parse_error(line.rstrip("\n").split(","), ix, it)
            return xs, ts, blanks, (lineno, str(cause), cause)
        xs.append(x)
        ts.append(t)
    return xs, ts, blanks, None


def _parse_error(parts: list[str], ix: int, it: int) -> ValueError:
    """The error that float() raises on the x or t field of a bad row."""
    try:
        float(parts[ix])
        float(parts[it])
    except ValueError as exc:
        return exc
    raise AssertionError(f"row {parts!r} parses")


def _first_bad_row(x: np.ndarray, t: np.ndarray) -> tuple[int, str] | None:
    """First row with a non-finite value, a negative t or a non-increasing x.

    A row with several faults reports them in that order.  Only n-byte
    masks are made: one, and one operand at a time.
    """
    if x.size == 0:
        return None
    bad = np.isfinite(x)
    bad &= np.isfinite(t)
    np.logical_not(bad, out=bad)
    bad |= t < 0.0
    bad[1:] |= x[1:] <= x[:-1]
    row = int(np.argmax(bad))
    if not bad[row]:
        return None
    if not (np.isfinite(x[row]) and np.isfinite(t[row])):
        return row, "non-finite value"
    if t[row] < 0.0:
        return row, f"negative thickness {float(t[row])}"
    return row, "x must be strictly increasing"
