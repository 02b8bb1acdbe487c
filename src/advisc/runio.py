"""CSV and manifest I/O for experiment runs.

Every CSV is one header line, then one line per row of comma-separated
values in ``%.17g``, which round-trips IEEE doubles exactly, so recomputing
statistics from stored files reproduces the original values bit-for-bit.
One writer and one reader serve every CSV; the reader takes the exact header
the file must have and raises ``CorruptRunError`` for any other. A
space-time matrix has the corner-labeled header ``t\\x,x0,x1,...``
(``matrix_header``); row n starts with the time of state n. JSON files are
strict JSON: a non-finite float is written as the string "inf", "-inf" or
"nan". The manifest is written last, atomically, as the completion marker of
a run. A file that cannot be parsed, or holds what no writer writes, raises
``CorruptRunError``.
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


def matrix_header(n: int) -> list[str]:
    """Header of a space-time matrix of ``n`` columns: ``t\\x,x0,...,x{n-1}``."""
    return ["t\\x", *(f"x{j}" for j in range(n))]


def write_columns_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write the header line, then one line per row, a sequence of one number
    per header name. Rows are taken and written in turn, so a large file never
    exists as one string or one list."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(line % tuple(row))


def read_columns_csv(path: str | Path, header: list[str]) -> np.ndarray:
    """Inverse of write_columns_csv for a file with exactly ``header``; returns
    an array with one column per header name, empty for a header-only file."""
    expected = ",".join(header)
    with open(path) as f:
        if f.readline().rstrip("\n") != expected:
            shown = expected if len(header) <= 8 else f"{','.join(header[:3])},...,{header[-1]}"
            raise CorruptRunError(f"{path} does not have the header {shown}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(f, delimiter=",", ndmin=2)
            except ValueError as err:
                raise CorruptRunError(f"{path}: {err}") from err
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
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise CorruptRunError(f"corrupt JSON in {p}: {err}") from err
    if not isinstance(payload, dict):
        raise CorruptRunError(f"{p} holds a JSON {type(payload).__name__}, not an object")
    return payload


MANIFEST_NAME = "manifest.json"


def write_manifest(directory: str | Path, payload: dict) -> None:
    """Atomic write (temp file + rename): presence marks a completed run."""
    directory = Path(directory)
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(_dumps(payload))
    os.replace(tmp, directory / MANIFEST_NAME)


def read_manifest(directory: str | Path) -> dict:
    """The manifest of ``directory``; a ``files`` block that is not a list of
    objects, each with a string ``name``, raises CorruptRunError."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no manifest found in {directory}")
    manifest = read_json(path)
    files = manifest.get("files", [])
    if not (isinstance(files, list)
            and all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    for entry in files)):
        raise CorruptRunError(f"{path} lists a file entry that is not an object with a name")
    return manifest
