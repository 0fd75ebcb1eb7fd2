"""Reading and writing of the on-disk table formats.

All floats are written with 17 significant digits, so parse -> format is
the identity on the file bytes and nothing is lost round-tripping.  Data
tables never carry timestamps or other run metadata; identical inputs must
produce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ProfileFormatError


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_profile_csv(path: Path, x: np.ndarray, t: np.ndarray) -> None:
    """Profile table: x, full thickness, and the half-profile t/2."""
    _write_rows(path, ("x", "t", "t_half"), zip(x, t, 0.5 * np.asarray(t)))


def write_temperature_csv(path: Path, x: np.ndarray, theta: np.ndarray) -> None:
    _write_rows(path, ("x", "theta"), zip(x, theta))


def write_table_json(path: Path, columns: Sequence[str], rows) -> None:
    payload = {
        "columns": list(columns),
        "rows": [[float(v) for v in row] for row in rows],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a profile table with at least the columns x and t.

    Extra columns (like t_half) are ignored.  Errors name the offending
    line, counting from 1 at the header.
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

    xs: list[float] = []
    ts: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ProfileFormatError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            x = float(parts[ix])
            t = float(parts[it])
        except ValueError as exc:
            raise ProfileFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not (np.isfinite(x) and np.isfinite(t)):
            raise ProfileFormatError(f"{path}: line {lineno}: non-finite value")
        if t < 0.0:
            raise ProfileFormatError(f"{path}: line {lineno}: negative thickness {t}")
        if xs and x <= xs[-1]:
            raise ProfileFormatError(
                f"{path}: line {lineno}: x must be strictly increasing"
            )
        xs.append(x)
        ts.append(t)

    if len(xs) < 2:
        raise ProfileFormatError(f"{path}: need at least two data rows, got {len(xs)}")
    return np.asarray(xs), np.asarray(ts)
