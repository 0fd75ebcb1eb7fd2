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
format it with one call and stream it through one open file.  For CSV
the call is ``orjson.dumps`` of the chunk as one flat list; its row ends
are then marked in place, every columns-th comma and the closing bracket
becoming ``\n``.  For JSON it is one ``%`` operation.  Every writer,
``write_json`` too, writes over the old file's bytes, without truncating
it first, and cuts the file at the end of what it wrote: at the end of
the table, or where an exception stopped the write, so no byte of the old
file is left after the new ones.  Only a regular file is cut; a device
such as ``/dev/null`` is written as it is.  A table is not written
atomically: a reader that opens it during the write sees part of it.
The reader reads the file as bytes, ``CHUNK_BYTES`` at a time, each block
cut at its last line end.  Lines end at ``\n``, ``\r\n`` or ``\r``
(Python's universal newlines); other characters that ``str.splitlines``
would break at, such as form feed, stay inside a line.  A block whose
lines each hold the header's number of fields, all JSON numbers, is
parsed by one ``orjson.loads`` of its lines joined into one list.  Every
other block goes through the line loop, which splits each line and reads
x and t with ``float()``: blank lines, whitespace, ``.5``, ``inf``,
``1e400`` and the other spellings that orjson refuses or reads otherwise.
Both give the same floats bit for bit, and the loop names every fault;
the tests hold the reader to the loop run over the whole file.  x and t
go into two ``array('d')`` buffers, which numpy then views without a
copy.  Beyond them the reader keeps one block and its floats; only blank
lines are remembered, by the row they precede, so that an error can name
its line.  Finiteness, sign and ordering are then checked on the whole
arrays.  Text is UTF-8: bytes that are not are a fault of their line.
One byte-order mark at the start of the header is dropped; one anywhere
else is a fault of its line.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import stat
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .errors import ProfileFormatError


# Rows formatted per write: large enough to amortise the call, small
# enough that the chunk's text stays well under a MiB.  orjson grows its
# output in fourfold steps (16, 64, 256 KiB).  In the flat list a value of
# at most 24 characters ("-2.2250738585072014e-308") and its comma take at
# most 25 bytes, a row of three values 75, so 512 rows (38 400 bytes) fit
# the 64 KiB step; 874 rows or more could take 256 KiB.
CHUNK_ROWS = 512

# Bytes read per block: about a thousand rows of a three-column table,
# whose orjson list of Python floats takes about 100 KB.
CHUNK_BYTES = 1 << 16

# Every byte of a JSON number, and the comma and line end between them.
_NUMBER_BYTES = b"0123456789.eE+-,\n"


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


@contextlib.contextmanager
def _rewritten(path: Path) -> Iterator[BinaryIO]:
    """path opened to be written from its first byte, and cut after the
    last byte written when the block ends, by an exception too.

    The file is opened without O_TRUNC: on an ext4 disk (2-core x86),
    rewriting a 300 KB file over its old bytes and cutting the rest took
    17 us, and truncating it to zero before the write 250 us.
    A new file gets the mode that ``open(path, "wb")`` gives it.  A file
    that is not regular, such as /dev/null, is not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    with open(fd, "wb") as out:
        try:
            yield out
        finally:
            if regular:
                out.truncate()


def _csv_lines(chunk: np.ndarray) -> memoryview:
    """The lines of a (rows, fields) chunk, each ending in ``\n``.

    One orjson call formats the chunk as a flat list [a,b,c,d]; every
    fields-th comma and the closing bracket then become line ends.
    """
    fields = chunk.shape[1]
    text = bytearray(orjson.dumps(chunk.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    codes = np.frombuffer(text, np.uint8)
    commas = np.flatnonzero(codes == ord(","))
    codes[commas[fields - 1::fields]] = ord("\n")
    codes[-1] = ord("\n")
    return memoryview(text)[1:]


def write_table_csv(path: Path, header: Sequence[str], *columns) -> None:
    """CSV table of the given columns under the header; a ValueError names
    the first non-finite value, and nothing is written."""
    columns = _float_columns(columns)
    _refuse_non_finite(path, header, columns)
    with _rewritten(path) as out:
        out.write((",".join(header) + "\n").encode())
        for chunk in _row_chunks(columns):
            out.write(_csv_lines(chunk))


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
    with _rewritten(path) as out:
        out.write(f'{{\n  "columns": [\n{names}\n  ],\n  "rows": [\n'.encode())
        separator = ""
        for chunk in chunks:
            text = ",\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
            if not np.isfinite(chunk).all():
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            out.write((separator + text).encode())
            separator = ",\n"
        out.write(b"\n  ]\n}\n")


def write_json(path: Path, payload: dict) -> None:
    text = (json.dumps(payload, indent=2) + "\n").encode()
    with _rewritten(path) as out:
        out.write(text)


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile table with at least the columns x and t.

    Extra columns (like t_half) are ignored.  Errors name the earliest
    offending line, counting from 1 at the header; blank lines count.
    The file is read a block at a time, so beyond one block memory grows
    only by the 16 bytes of each row's x and t.
    """
    try:
        with open(path, "rb") as source:
            xs, ts, blanks, fault = _read_rows(path, source)
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path}: {exc}") from exc
    return _checked_columns(path, xs, ts, blanks, fault)


def _checked_columns(
    path: Path, xs: array, ts: array, blanks: array, fault: tuple | None
) -> tuple[np.ndarray, np.ndarray]:
    """x and t of the rows read, or the ProfileFormatError of their
    earliest fault."""
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


def _read_rows(
    path: Path, source: BinaryIO
) -> tuple[array, array, array, tuple | None]:
    """(xs, ts, blanks, fault) of a table's lines, up to the first that fails
    to parse, as ``_parse_rows`` gives them for the whole file.

    A block of numbers only is parsed by ``_number_rows``; any other block
    goes through ``_parse_rows``.
    """
    blocks = _line_blocks(source)
    first = next(blocks, b"")
    if not first:
        raise ProfileFormatError(f"{path}: line 1: file is empty, expected a header")
    header, _, first = first.partition(b"\n")
    try:
        columns = _header_columns(path, header.decode())
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"{path}: line 1: {_decode_message(exc)}") from exc

    fields, ix, it = columns
    xs, ts, blanks = array("d"), array("d"), array("q")
    lineno = 2
    for block in itertools.chain((first,), blocks):
        rows = _number_rows(block, fields)
        if rows is None:
            fault = _parse_block(block, lineno, columns, xs, ts, blanks)
            if fault is not None:
                return xs, ts, blanks, fault
            lineno += block.count(b"\n")
        else:
            xs.frombytes(rows[:, ix].tobytes())
            ts.frombytes(rows[:, it].tobytes())
            lineno += len(rows)
    return xs, ts, blanks, None


def _line_blocks(source: BinaryIO) -> Iterator[bytes]:
    """The file's whole lines, about CHUNK_BYTES bytes of them at a time,
    each line ending in ``\n``.

    ``\r\n`` and ``\r`` end a line as ``\n`` does (Python's universal
    newlines); a final line without an end gets one.  A read that ends in
    ``\r`` holds it back, since the next read may start with its ``\n``.
    """
    pieces: list[bytes] = []  # the unfinished line
    held = b""
    while block := source.read(CHUNK_BYTES):
        block = held + block
        held = block[-1:] if block.endswith(b"\r") else b""
        if held:
            block = block[:-1]
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        end = block.rfind(b"\n") + 1
        if end:
            pieces.append(block[:end])
            yield b"".join(pieces)
            pieces = [block[end:]]
        else:
            pieces.append(block)
    tail = b"".join(pieces)
    if tail or held:
        yield tail + b"\n"


def _header_columns(path: Path, first: str) -> tuple[int, int, int]:
    """(fields, index of x, index of t) of the header line, without its end.

    One leading UTF-8 byte-order mark, as spreadsheets write, is dropped.
    """
    first = first.removeprefix("\ufeff")
    header = [name.strip() for name in first.split(",")]
    if "x" not in header or "t" not in header:
        raise ProfileFormatError(
            f"{path}: line 1: header must contain columns 'x' and 't', got {first!r}"
        )
    return len(header), header.index("x"), header.index("t")


def _number_rows(block: bytes, fields: int) -> np.ndarray | None:
    """The block's rows as a (rows, fields) float array, or None unless
    every line holds fields numbers that orjson reads as float() does.

    The block must hold only the bytes of JSON numbers, commas and line
    ends, and each line exactly fields - 1 commas; the lines then join into
    one JSON list.  A block that orjson refuses (``.5``, ``1.``, ``+1``,
    ``00.5``, ``1e400``, an empty field) goes to the line loop, and so does
    one with an integer ``-0``: orjson reads it as int 0, float() as -0.0.
    Only a block that holds a zero is searched for one.
    """
    if block.translate(None, _NUMBER_BYTES):
        return None
    codes = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    commas = np.flatnonzero(codes == ord(","))
    if commas.size != (fields - 1) * ends.size:
        return None
    # Each line's first comma follows the line before, its last precedes
    # its own end: with the count right, every line has fields - 1.
    commas = commas.reshape(ends.size, fields - 1)
    if not ((commas[:, -1] < ends).all() and (commas[1:, 0] > ends[:-1]).all()):
        return None
    try:
        values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
    except orjson.JSONDecodeError:
        return None
    rows = np.array(values, dtype=float).reshape(ends.size, fields)
    if not rows.all() and (b"-0," in block or b"-0\n" in block):
        return None
    return rows


def _parse_block(
    block: bytes, start: int, columns: tuple[int, int, int],
    xs: array, ts: array, blanks: array,
) -> tuple | None:
    """``_parse_rows`` over the block's lines, the first on line start.

    A line that is not UTF-8 is a fault of its own, after those of the
    lines before it.
    """
    try:
        lines = block.decode()
    except UnicodeDecodeError as exc:
        head = block.rfind(b"\n", 0, exc.start) + 1
        fault = _parse_block(block[:head], start, columns, xs, ts, blanks)
        lineno = start + block.count(b"\n", 0, head)
        return fault or (lineno, _decode_message(exc), exc)
    return _parse_rows(lines.split("\n")[:-1], start, columns, xs, ts, blanks)


def _decode_message(exc: UnicodeDecodeError) -> str:
    return f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 text ({exc.reason})"


def _parse_rows(
    lines: Iterable[str], start: int, columns: tuple[int, int, int],
    xs: array, ts: array, blanks: array,
) -> tuple | None:
    """Append x and t of each line to xs and ts, the first line being line
    start, up to the first line that fails to parse.

    A blank line appends the number of rows before it to blanks.  Returns
    (line, message, cause) of the first line that does not parse, or None.
    """
    fields, ix, it = columns
    for lineno, line in enumerate(lines, start=start):
        parts = line.split(",")
        if len(parts) != fields:
            if not line.strip():
                blanks.append(len(xs))
                continue
            return lineno, f"expected {fields} fields, got {len(parts)}", None
        try:
            x = float(parts[ix])
            t = float(parts[it])
        except ValueError:
            # float() ignores the line's newline but would quote it.
            cause = _parse_error(line.rstrip("\n").split(","), ix, it)
            return lineno, str(cause), cause
        xs.append(x)
        ts.append(t)
    return None


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
