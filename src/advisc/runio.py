"""CSV and manifest I/O for experiment runs.

All numeric output uses 17 significant digits, which round-trips IEEE
doubles exactly, so recomputing statistics from stored files reproduces the
original values bit-for-bit. Space-time matrices carry a corner-labeled
header row ``t\\x,x0,x1,...``; row n starts with the time of state n. JSON
files are strict JSON: a non-finite float is written as the string "inf",
"-inf" or "nan". The manifest is written last, atomically, as the completion
marker of a run. A file that cannot be parsed, or holds what no writer
writes, raises ``CorruptRunError``.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Iterable
from pathlib import Path

import numpy as np


class CorruptRunError(ValueError):
    """A stored run file that is unreadable or inconsistent with its run."""


def _write_lines(path: str | Path, header: str, lines: Iterable[str]) -> None:
    """Write the header, then each line in turn: a large file never exists as one string."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for line in lines:
            f.write(line + "\n")


def write_matrix_csv(path: str | Path, times: np.ndarray, matrix: np.ndarray) -> None:
    """Space-time matrix: header ``t\\x,x0,...``, one row per recorded time."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != len(times):
        raise ValueError("matrix must be 2D with one row per time entry")
    header = "t\\x," + ",".join(f"x{j}" for j in range(matrix.shape[1]))
    line = ",".join(["%.17g"] * (matrix.shape[1] + 1))
    rows = (line % (t, *row.tolist()) for t, row in zip(times, matrix))
    _write_lines(path, header, rows)


def _read_rows(f, path: str | Path) -> np.ndarray:
    """The rows of floats after the header of the open file ``f``.

    A file without data rows gives an empty array; a parse error names ``path``.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as err:
            raise CorruptRunError(f"{path}: {err}") from err


def read_matrix_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of write_matrix_csv; returns (times, matrix)."""
    with open(path) as f:
        if not f.readline().startswith("t\\x,"):
            raise CorruptRunError(f"{path} is not a space-time matrix CSV")
        data = _read_rows(f, path)
    if data.shape[0] == 0:
        raise CorruptRunError(f"{path} has no data rows")
    # Every matrix a run writes is finite; anything else is a corrupt file.
    if not np.isfinite(data).all():
        raise CorruptRunError(f"{path} has non-finite entries")
    return data[:, 0].copy(), np.ascontiguousarray(data[:, 1:])


def write_series_csv(path: str | Path, key: str, name: str,
                     keys: np.ndarray, values: np.ndarray) -> None:
    """Two-column series like ``t,value`` or ``iter,value``."""
    if len(keys) != len(values):
        raise ValueError("series columns must have equal length")
    _write_lines(path, f"{key},{name}", ("%.17g,%.17g" % kv for kv in zip(keys, values)))


def read_series_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of write_series_csv; returns (keys, values), empty for a header-only file."""
    with open(path) as f:
        if "," not in f.readline():
            raise CorruptRunError(f"{path} is not a two-column series CSV")
        data = _read_rows(f, path)
    if data.shape[0] == 0:
        return np.empty(0), np.empty(0)
    if data.shape[1] != 2:
        raise CorruptRunError(f"{path}: expected 2 columns, got {data.shape[1]}")
    return data[:, 0].copy(), data[:, 1].copy()


def write_columns_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """General column-oriented CSV with a named header row."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("all columns must have equal length")
    line = ",".join(["%.17g"] * len(columns))
    _write_lines(path, ",".join(header),
                 (line % tuple(row) for row in np.column_stack(columns).tolist()))


def read_columns_csv(path: str | Path, header: list[str]) -> np.ndarray:
    """Inverse of write_columns_csv for a file with exactly ``header``; returns
    an array with one column per header name, empty for a header-only file."""
    with open(path) as f:
        if f.readline().rstrip("\n") != ",".join(header):
            raise CorruptRunError(f"{path} does not have the header {','.join(header)}")
        data = _read_rows(f, path)
    if data.shape[0] == 0:
        return np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise CorruptRunError(f"{path}: expected {len(header)} columns, got {data.shape[1]}")
    return data


NON_FINITE_NAMES = ("inf", "-inf", "nan")


def _finite_json(value):
    """``value`` with each non-finite float replaced by its name, one of
    NON_FINITE_NAMES, which strict JSON has no number for."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def _dumps(payload: dict) -> str:
    """Strict JSON of ``payload``: a non-finite float is written as its name."""
    return json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(_dumps(payload))


def read_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"missing file: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise CorruptRunError(f"corrupt JSON in {p}: {err}") from err


MANIFEST_NAME = "manifest.json"


def write_manifest(directory: str | Path, payload: dict) -> None:
    """Atomic write (temp file + rename): presence marks a completed run."""
    directory = Path(directory)
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(_dumps(payload))
    os.replace(tmp, directory / MANIFEST_NAME)


def read_manifest(directory: str | Path) -> dict:
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no manifest found in {directory}")
    return read_json(path)
