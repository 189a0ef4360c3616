"""Matrix ingestion: CSV and JSON readers with positional error reporting.

CSV matrices are plain decimals, comma-separated, one row per line, no
header.  Real JSON matrices use {"a": [[...], ...]}; complex JSON matrices
use {"re": [[...], ...], "im": [[...], ...]}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidMatrixError, MatrixParseError
from .identity import ComplexScoreMatrix
from .scores import ScoreMatrix


def _rows_from_csv(text: str, source: str) -> list[list[float]]:
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row: list[float] = []
        for colno, token in enumerate(line.split(","), start=1):
            try:
                row.append(float(token))
            except ValueError:
                raise MatrixParseError(
                    f"{source}: row {lineno}, column {colno}: not a decimal: {token.strip()!r}",
                    row=lineno,
                    col=colno,
                ) from None
        rows.append(row)
    if not rows:
        raise MatrixParseError(f"{source}: no rows found")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MatrixParseError(
                f"{source}: row {lineno}: expected {width} values, found {len(row)}",
                row=lineno,
            )
    return rows


def _real_grid(obj, key: str, source: str) -> list[list[float]]:
    if not isinstance(obj, dict) or key not in obj:
        raise MatrixParseError(f"{source}: expected a JSON object with an {key!r} field")
    grid = obj[key]
    if not isinstance(grid, list) or not grid:
        raise MatrixParseError(f"{source}: field {key!r} must be a nonempty list of rows")
    rows: list[list[float]] = []
    for lineno, row in enumerate(grid, start=1):
        if not isinstance(row, list):
            raise MatrixParseError(f"{source}: {key!r} row {lineno} is not a list", row=lineno)
        out: list[float] = []
        for colno, entry in enumerate(row, start=1):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise MatrixParseError(
                    f"{source}: {key!r} row {lineno}, column {colno}: not a number: {entry!r}",
                    row=lineno,
                    col=colno,
                )
            out.append(float(entry))
        rows.append(out)
    return rows


def infer_format(path: str | Path) -> str:
    return "json" if str(path).lower().endswith(".json") else "csv"


def _read_text(path: Path) -> str:
    """The text of ``path``; a file that cannot be read or decoded is a ``MatrixParseError``."""
    try:
        return path.read_text()
    except OSError as exc:
        raise MatrixParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not text: {exc}") from None


def load_score_matrix(path: str | Path, fmt: str | None = None) -> ScoreMatrix:
    """Read a real score matrix from a CSV or JSON file."""
    path = Path(path)
    fmt = fmt or infer_format(path)
    text = _read_text(path)
    source = str(path)
    if fmt == "csv":
        rows = _rows_from_csv(text, source)
    elif fmt == "json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"{source}: invalid JSON: {exc}") from None
        rows = _real_grid(obj, "a", source)
    else:
        raise MatrixParseError(f"unknown matrix format {fmt!r} (expected csv or json)")
    try:
        return ScoreMatrix(np.array(rows, dtype=float))
    except InvalidMatrixError as exc:
        raise MatrixParseError(f"{source}: {exc}") from None


def load_complex_matrix(path: str | Path) -> ComplexScoreMatrix:
    """Read a complex matrix from JSON with separate re/im grids."""
    path = Path(path)
    source = str(path)
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"{source}: invalid JSON: {exc}") from None
    re = np.array(_real_grid(obj, "re", source), dtype=float)
    im = np.array(_real_grid(obj, "im", source), dtype=float)
    if re.shape != im.shape:
        raise MatrixParseError(f"{source}: re and im grids differ in shape: {re.shape} vs {im.shape}")
    try:
        return ComplexScoreMatrix(re + 1j * im)
    except InvalidMatrixError as exc:
        raise MatrixParseError(f"{source}: {exc}") from None
