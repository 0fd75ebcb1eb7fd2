"""Reading and writing of the on-disk table formats.

Both formats are lossless.  CSV tables write every float with 17
significant digits ("%.17g"), so parse -> format is the identity on the
file bytes.  JSON files hold the shortest repr that round-trips (``0.1``,
not ``0.10000000000000001``), byte for byte as ``json.dumps(indent=2)``
writes it.  Data tables never carry timestamps or other run metadata;
identical inputs must produce identical files.

The CSV and JSON table writers format whole chunks of rows with one ``%``
operation and stream them through one open file, so memory stays bounded
on long tables.  The reader makes one pass that splits each line and
parses its x and t, then checks finiteness, sign and ordering on the
whole arrays.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ProfileFormatError


def format_float(value: float) -> str:
    return format(float(value), ".17g")


# Rows formatted per write: large enough to amortise the call, small
# enough that the chunk's string and value tuple stay well under a MiB.
CHUNK_ROWS = 2048


def _write_columns(path: Path, header: Sequence[str], *columns) -> None:
    table = np.asarray(np.column_stack(columns), dtype=float)
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(table), CHUNK_ROWS):
            chunk = table[start:start + CHUNK_ROWS]
            out.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


def write_profile_csv(path: Path, x: np.ndarray, t: np.ndarray) -> None:
    """Profile table: x, full thickness, and the half-profile t/2."""
    _write_columns(path, ("x", "t", "t_half"), x, t, 0.5 * np.asarray(t))


def write_temperature_csv(path: Path, x: np.ndarray, theta: np.ndarray) -> None:
    _write_columns(path, ("x", "theta"), x, theta)


def write_table_json(path: Path, header: Sequence[str], *columns) -> None:
    """{"columns": header, "rows": [...]}: for one row or more, the bytes of
    json.dumps(indent=2).

    Rows are formatted a chunk at a time with one ``%r`` operation, the
    float repr json writes, so the pure-Python encoder that ``indent``
    selects never sees them; only NaN and infinities need json's spelling.
    """
    table = np.asarray(np.column_stack(columns), dtype=float)
    names = ",\n".join("    " + json.dumps(name) for name in header)
    row = "    [\n" + ",\n".join(["      %r"] * table.shape[1]) + "\n    ]"
    with open(path, "w") as out:
        out.write(f'{{\n  "columns": [\n{names}\n  ],\n  "rows": [\n')
        for start in range(0, len(table), CHUNK_ROWS):
            chunk = table[start:start + CHUNK_ROWS]
            text = ",\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
            if not np.isfinite(chunk).all():
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            out.write(text if start == 0 else ",\n" + text)
        out.write("\n  ]\n}\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile table with at least the columns x and t.

    Extra columns (like t_half) are ignored.  Errors name the earliest
    offending line, counting from 1 at the header.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ProfileFormatError(f"{path}: line 1: file is empty, expected a header")

    header = [name.strip() for name in lines[0].split(",")]
    if "x" not in header or "t" not in header:
        raise ProfileFormatError(
            f"{path}: line 1: header must contain columns 'x' and 't', got {lines[0]!r}"
        )
    ix = header.index("x")
    it = header.index("t")

    fields = len(header)
    xs: list[float] = []
    ts: list[float] = []
    fault = None  # (line, message, cause) of the first row that does not parse
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != fields:
            if not line.strip():
                continue
            fault = (lineno, f"expected {fields} fields, got {len(parts)}", None)
            break
        try:
            x = float(parts[ix])
            t = float(parts[it])
        except ValueError as exc:
            fault = (lineno, str(exc), exc)
            break
        xs.append(x)
        ts.append(t)

    x, t = np.asarray(xs), np.asarray(ts)
    # A bad value on a row before the unparsable one is the earlier fault.
    bad = _first_bad_row(x, t)
    if bad is not None:
        row, message = bad
        raise ProfileFormatError(f"{path}: line {_line_of_row(lines, row)}: {message}")
    if fault is not None:
        lineno, message, cause = fault
        raise ProfileFormatError(f"{path}: line {lineno}: {message}") from cause
    if len(x) < 2:
        raise ProfileFormatError(f"{path}: need at least two data rows, got {len(x)}")
    return x, t


def _first_bad_row(x: np.ndarray, t: np.ndarray) -> tuple[int, str] | None:
    """First row with a non-finite value, a negative t or a non-increasing x.

    A row with several faults reports them in that order.
    """
    finite = np.isfinite(x) & np.isfinite(t)
    bad = ~finite | (t < 0.0)
    bad[1:] |= x[1:] <= x[:-1]
    rows = np.flatnonzero(bad)
    if rows.size == 0:
        return None
    row = int(rows[0])
    if not finite[row]:
        return row, "non-finite value"
    if t[row] < 0.0:
        return row, f"negative thickness {float(t[row])}"
    return row, "x must be strictly increasing"


def _line_of_row(lines: list[str], row: int) -> int:
    """Line number, counting from 1 at the header, of data row `row`."""
    data_lines = (n for n, line in enumerate(lines[1:], start=2) if line.strip())
    return next(islice(data_lines, row, None))
