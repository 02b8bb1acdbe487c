"""CSV and manifest I/O for experiment runs.

Every CSV is one header line, then one line per row of comma-separated
values, each exactly the bytes ``'%.17g' % value`` gives. 17 significant
digits round-trip IEEE doubles exactly, so recomputing statistics from stored
files reproduces the original values bit-for-bit. The writer streams the
rows' values through a vectorized formatter a bounded chunk at a time
(``_format_chunk``): values with 1e-4 <= |x| < 1e15 are printed from their
exactly rounded 17 digits, every other value by Python's ``%`` operator.
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


# The formatter writes each value into a slot of _SLOT bytes: its sign at
# byte 0, its text from byte 1 and its separator at the last byte, with NUL
# bytes between them; deleting the NULs leaves the line text. The longest
# '%.17g' text, "-2.2250738585072014e-308", and its separator fit in a slot.
_SLOT = 32
# Values formatted per _format_chunk call. The writer's scratch memory is a
# fixed multiple of it, whatever the file's size or row length.
_CHUNK_VALUES = 1024

_U64 = np.uint64


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group g = 0..9999, digits d0 d1 d2 d3: its ASCII digits in
    a word, d0 in the lowest byte, and its count of trailing decimal zeros
    (4 for the group 0)."""
    digit = np.arange(10, dtype=_U64)
    ascii_digit = digit + _U64(ord("0"))
    d0, d1, d2, d3 = (ascii_digit.reshape((10,) + (1,) * (3 - i)) << _U64(8 * i) for i in range(4))
    z0, z1, z2, z3 = ((digit == 0).astype(np.int8).reshape((10,) + (1,) * (3 - i)) for i in range(4))
    return (d0 | d1 | d2 | d3).ravel(), (z3 * (1 + z2 * (1 + z1 * (1 + z0)))).ravel()


_DIGITS4, _TRAILING_ZEROS4 = _group_tables()
# 10**k, exact in a double for k <= 22, split into two 26-bit halves for
# Dekker's exact product.
_SPLITTER = 2.0 ** 27 + 1
_POW10 = np.array([10.0 ** k for k in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(text: bytes, start: int) -> list[int]:
    """``text`` placed from byte ``start`` of three little-endian 64-bit words."""
    value = int.from_bytes(text, "little") << (8 * start)
    return [(value >> (64 * w)) & (2 ** 64 - 1) for w in range(3)]


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """How the 17 digits, from byte 1 of three words, become the text, per
    decimal exponent D of the fast window (row D + 4, D = -4..14): the bytes
    that stay in place (the D + 1 integer digits), the bytes put in front of
    the rest (the point, or the ``0.`` and zeros of a number below 1), the
    bit shift that makes room for them, and, per count z of trailing zeros
    of the digits (column 17 * (D + 4) + z), the mask of the text's bytes:
    the fraction's trailing zeros go, and the point with them if none of
    the fraction is left."""
    stays, marks, shifts = [], [], []
    for d in range(-4, 15):
        if d >= 0:
            head, stay, mark = b".", _words(b"\xff" * (d + 1), 1), _words(b".", d + 2)
        else:
            head = b"0." + b"0" * (-d - 1)
            stay, mark = [0, 0, 0], _words(head, 1)
        stays.append(stay[:2])
        marks.append(mark)
        shifts.append(8 * len(head))
    d, z = np.arange(-4, 15)[:, None], np.arange(17)
    fraction = np.maximum(16 - d - z, 0)
    length = np.where(d >= 0, d + 1 + (fraction > 0) * (1 + fraction), 18 - d - z)
    byte = np.arange(24)
    in_text = ((byte >= 1) & (byte <= length[..., None])).astype(np.uint8) * np.uint8(0xFF)
    masks = in_text.view("<u8").astype(_U64).reshape(-1, 3).T
    stays, marks = (np.array(rows, dtype=_U64).T.copy() for rows in (stays, marks))
    return stays, marks, np.array(shifts, dtype=_U64), np.ascontiguousarray(masks)


_STAYS, _MARKS, _SHIFTS, _TEXT_MASKS = _exponent_tables()


def _round_scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**k), exact for a * 10**k in [2**53, 2**62).

    Dekker's two-product gives ``product + error == a * 10**k`` exactly. A
    double of at least 2**53 is an even integer, so rounding the sum half
    to even is rounding the error half to even and adding it. Below 2**53
    the result can be one off, which still tells ``_decimal`` that it is
    below 10**16."""
    a_hi = a * _SPLITTER
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    product = a * _POW10[k]
    error = a_hi * p_hi
    error -= product
    error += a_hi * p_lo
    error += a_lo * p_hi
    error += a_lo * p_lo
    return product.astype(np.int64) + np.rint(error, out=error).astype(np.int64)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal exponent D, 10**D <= a < 10**(D + 1), and the 17 digits N,
    the nearest integer to a * 10**(16 - D) (ties to even), of each
    1e-4 <= a < 1e15. D is taken from log10 and corrected by one where N
    falls outside [10**16, 10**17)."""
    d = np.floor(np.log10(a)).astype(np.int64)
    digits = _round_scaled(a, 16 - d)
    off = np.flatnonzero((digits - 10 ** 16).view(_U64) >= _U64(9 * 10 ** 16))
    if len(off):
        d[off] += np.where(digits[off] < 10 ** 16, -1, 1)
        digits[off] = _round_scaled(a[off], 16 - d[off])
    return d, digits


def _ascii(digits: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits of each N as ASCII bytes 1-17 of three words, and the
    count of N's trailing decimal zeros."""
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    groups = []  # N = lead * 10**16 + the 4-digit groups g0 g1 g2 g3
    for part in (high, low):
        top = part // 10_000
        part -= top * 10_000
        groups += [top, part]
    zeros = _TRAILING_ZEROS4.take(groups[3])
    more = np.flatnonzero(zeros == 4)
    for group in groups[2::-1]:
        if not len(more):
            break
        extra = _TRAILING_ZEROS4.take(group[more])
        zeros[more] += extra
        more = more[extra == 4]
    s0, s1 = (_DIGITS4.take(groups[i]) | (_DIGITS4.take(groups[i + 1]) << _U64(32)) for i in (0, 2))
    s2 = s1 >> _U64(48)
    s1 <<= _U64(16)
    s1 |= s0 >> _U64(48)
    s0 <<= _U64(16)
    lead += ord("0")
    s0 |= lead.view(_U64) << _U64(8)
    return [s0, s1, s2], zeros


def _format_chunk(values: np.ndarray, slots: np.ndarray, n_cols: int, offset: int) -> None:
    """Fill ``slots[:len(values)]``, rows of _SLOT bytes, with the slots of
    ``values``, the values ``offset`` onwards of a stream of rows of
    ``n_cols`` values each.

    For 1e-4 <= |x| < 1e15, ``%.17g`` prints fixed-point: the 17 digits of
    |x| (``_decimal``) with a point after digit D + 1 (D >= 0) or behind
    ``0.`` and -D - 1 zeros (D < 0), less the fraction's trailing zeros. A
    zero is "0" or "-0"; every other value is formatted by ``%``, all of
    them in one call."""
    slots = slots[:len(values)]
    a = np.abs(values)
    in_window = (a >= 1e-4) & (a < 1e15)
    slow = np.flatnonzero(~in_window)
    fast = np.flatnonzero(in_window) if len(slow) else slice(None)
    d, digits = _decimal(a[fast])
    del a
    (s0, s1, s2), zeros = _ascii(digits)
    del digits
    row = d + 4
    masks = 17 * row + zeros
    shift = _SHIFTS[row]
    back = _U64(64) - shift
    stay0, stay1 = s0 & _STAYS[0][row], s1 & _STAYS[1][row]
    s0 ^= stay0
    s1 ^= stay1
    slots[fast, 0] = ((stay0 | _MARKS[0][row] | (s0 << shift)) & _TEXT_MASKS[0][masks]
                      | (values[fast] < 0) * _U64(ord("-")))
    slots[fast, 1] = ((stay1 | _MARKS[1][row] | (s1 << shift) | (s0 >> back))
                      & _TEXT_MASKS[1][masks])
    slots[fast, 2] = (_MARKS[2][row] | (s2 << shift) | (s1 >> back)) & _TEXT_MASKS[2][masks]
    slots[:, 3] = 0
    text = slots.view(np.uint8)
    text[:, -1] = ord(",")
    text[(n_cols - 1 - offset) % n_cols::n_cols, -1] = ord("\n")
    if len(slow):
        is_zero = values[slow] == 0
        zero, slow = slow[is_zero], slow[~is_zero]
        slots[zero, 0] = np.signbit(values[zero]) * _U64(ord("-")) | _U64(ord("0") << 8)
        slots[zero, 1:3] = 0
        formatted = ("%.17g\0" * len(slow) % tuple(values[slow].tolist())).encode()
        text[slow, :-1] = np.array(formatted.split(b"\0")[:-1], dtype=f"S{_SLOT - 1}").view(
            np.uint8).reshape(-1, _SLOT - 1)


def write_columns_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write the header line, then one line per row, a sequence of one number
    per header name, each printed as ``'%.17g' % value`` does; a row of
    another length raises ValueError. Rows are taken in turn and their values
    formatted _CHUNK_VALUES at a time, so a large file never exists as one
    string or one array."""
    n_cols = len(header)
    values = np.empty(_CHUNK_VALUES)
    buffer = bytearray(_CHUNK_VALUES * _SLOT)
    slots = np.frombuffer(buffer, "<u8").reshape(_CHUNK_VALUES, _SLOT // 8)
    filled = done = 0

    def flush(f) -> None:
        _format_chunk(values[:filled], slots, n_cols, done)
        slots[filled:] = 0
        f.write(buffer.translate(None, b"\0"))

    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for row in rows:
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (n_cols,):
                raise ValueError(f"{path}: a row of shape {row.shape} for {n_cols} columns")
            start = 0
            while start < n_cols:
                take = min(_CHUNK_VALUES - filled, n_cols - start)
                values[filled:filled + take] = row[start:start + take]
                filled, start = filled + take, start + take
                if filled == _CHUNK_VALUES:
                    flush(f)
                    done, filled = done + filled, 0
        if filled:
            flush(f)


def read_columns_csv(path: str | Path, header: list[str]) -> np.ndarray:
    """Inverse of write_columns_csv for a file with exactly ``header``; returns
    an array with one column per header name, empty for a header-only file.

    The lines are counted first and passed to loadtxt as its row limit, so
    that it allocates the array once, at its size for a file a run wrote.
    Left to grow the array, loadtxt reallocates it row block by row block,
    and after a run has freed an array of that size the freed blocks stay
    resident: at N = 10^4, reading solution.csv that way raised the
    resident set by 23 MB for a 12 MB array."""
    expected = ",".join(header)
    with open(path, encoding="utf-8") as f:
        try:
            if f.readline().rstrip("\n") != expected:
                shown = (expected if len(header) <= 8
                         else f"{','.join(header[:3])},...,{header[-1]}")
                raise CorruptRunError(f"{path} does not have the header {shown}")
            start = f.tell()
            n_lines = sum(1 for _ in f)  # at least the number of rows
        except UnicodeDecodeError as err:
            raise CorruptRunError(f"{path} is not UTF-8 text: {err}") from err
        f.seek(start)
        if n_lines == 0:
            return np.empty((0, len(header)))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
            try:
                data = np.loadtxt(f, delimiter=",", ndmin=2, max_rows=n_lines)
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
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
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
    """The manifest of ``directory``; ``files`` that are not objects with a string
    ``name``, or ``subruns`` or a ``preset`` that are not strings, raise CorruptRunError."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no manifest found in {directory}")
    manifest = read_json(path)
    files = manifest.get("files", [])
    if not (isinstance(files, list)
            and all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    for entry in files)):
        raise CorruptRunError(f"{path} lists a file entry that is not an object with a name")
    subruns, preset = manifest.get("subruns", []), manifest.get("preset", "")
    if not (isinstance(subruns, list) and all(isinstance(name, str) for name in subruns)
            and isinstance(preset, str)):
        raise CorruptRunError(f"{path} has subruns or a preset that are not names")
    return manifest
