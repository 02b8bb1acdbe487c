"""CSV and manifest I/O for experiment runs.

Every CSV is one header line, then one line per row of comma-separated
values, each exactly the bytes ``'%.17g' % value`` gives. 17 significant
digits round-trip IEEE doubles exactly, so recomputing statistics from stored
files reproduces the original values bit-for-bit. The writer formats the
columns it is given a block of whole rows at a time, at most 4096 values or
one row, through a vectorized formatter (``_format_chunk``): values with
1e-4 <= |x| < 1e15 are printed from their exactly rounded 17 digits, every
other value by Python's ``%`` operator. With the block's slots and the
formatter's arrays it holds about 96 bytes per block value, whatever the
file's length.
One formatter feeds the writer and a comparator (``_csv_matches``), which
checks a file against the bytes the writer would write for given columns,
block by block, reading no more of the file than one block at a time;
comparing costs less than parsing only where at least 9 in 10 values print
from their digits (``_formatting_beats_parsing``). One reader serves every
CSV; it takes the exact header line the file must have and raises
``CorruptRunError`` for any other. A space-time matrix has the corner-labeled
header ``t\\x,x0,x1,...`` (``matrix_header``); row n starts with the time of
state n. JSON files are strict JSON: a non-finite float is written as the
string "inf", "-inf" or "nan" (``_json_value``). Every JSON file is replaced
atomically, through a temporary file and a rename; the manifest is written
last, as the completion marker of a run. A file that cannot be parsed, or
holds what no writer writes, raises ``CorruptRunError``.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np


class CorruptRunError(ValueError):
    """A stored run file that is unreadable or inconsistent with its run."""


def matrix_header(n: int) -> str:
    """Header line of a space-time matrix of ``n`` columns: ``t\\x,x0,...,x{n-1}``."""
    return "t\\x" + "".join(f",x{j}" for j in range(n))


# The formatter writes each value into a slot of _SLOT bytes: its sign at
# byte 0, its text from byte 1 and its separator at the last byte, with NUL
# bytes between them; deleting the NULs leaves the line text. The longest
# '%.17g' text, "-2.2250738585072014e-308", and its separator fit in a slot.
_SLOT = 32
# Values formatted per _format_chunk call, which pays the fixed cost of about
# a hundred numpy calls for each; a call takes whole rows, so a wider row is
# formatted alone. The writer holds 8 bytes per value, its slot (_SLOT bytes)
# and the formatter's arrays (at most 56 bytes per value): about 400 kB at
# 4096 values and 1 MB for a row of 10^4, whatever the file's length.
_CHUNK_VALUES = 4096

# Values outside the fast path's window are printed by ``%`` this many at a
# time, each left-justified in _SLOT - 1 bytes that are padded with spaces,
# which become NULs. Their Python floats and texts take about 80 bytes per
# value, so a batch holds less than the fast path's arrays for a chunk.
_PERCENT_VALUES = 1024
_PERCENT_FORMAT = b"%%-%d.17g" % (_SLOT - 1)
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")

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


def _form_tables() -> tuple[np.ndarray, ...]:
    """How the 17 digits at bytes 1-17 of three words become the text, per
    form 17 * (D + 4) + z of a value: D its decimal exponent (D = -4..14),
    z the count of trailing zeros of its digits. The D + 1 integer digits
    stay in place; after them comes the head, the point or the ``0.`` and
    zeros of a number below 1; the other digits follow, moved up by the
    head's length, less their trailing zeros, and the head goes with them
    if none of them is left. Per form and word: the mask of the bytes that
    stay, the mask of those the moved digits fill, and the head's bytes;
    per form, the head's length in bits."""
    d = np.arange(-4, 15).repeat(17)[:, None]
    last = 16 - np.tile(np.arange(17), 19)[:, None]  # the index of the last digit printed
    byte = np.arange(3 * 8)
    integer = np.maximum(d + 1, 0)
    head = np.where(d >= 0, 1, 1 - d)
    stays = (byte >= 1) & (byte <= integer)
    moves = (byte > integer + head) & (byte <= last + 1 + head)
    in_head = (last >= integer) & (byte > integer) & (byte <= integer + head)
    point = integer + np.where(d >= 0, 1, 2)
    marks = np.where(byte == point, ord("."), ord("0")) * in_head

    def words(table: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(table.astype(np.uint8).view("<u8").astype(_U64).T)

    return (words(stays * 0xFF)[:2], words(moves * 0xFF), words(marks),
            (8 * head).astype(_U64).ravel())


_STAYS, _MOVES, _MARKS, _SHIFTS = _form_tables()


def _round_scaled(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**k) for k = 16 - d, exact for a * 10**k in [2**53, 2**62).

    Dekker's two-product gives ``product + error == a * 10**k`` exactly. A
    double of at least 2**53 is an even integer, so rounding the sum half
    to even is rounding the error half to even and adding it. Below 2**53
    the result can be one off, which still tells ``_decimal`` that it is
    below 10**16. Each product is formed in a factor that is not needed
    again, so the stage holds seven arrays of ``a``'s size at most."""
    k = np.subtract(16, d, dtype=np.int64)
    product = _POW10[k]
    product *= a
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    del k
    a_hi = a * _SPLITTER
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    error = a_hi * p_hi
    error -= product
    a_hi *= p_lo
    error += a_hi
    p_hi *= a_lo
    error += p_hi
    a_lo *= p_lo
    error += a_lo
    del a_hi, a_lo, p_hi, p_lo
    digits = product.astype(np.int64)
    del product
    digits += np.rint(error, out=error).astype(np.int64)
    return digits


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal exponent D, 10**D <= a < 10**(D + 1), as int8, and the 17
    digits N, the nearest integer to a * 10**(16 - D) (ties to even), of
    each 1e-4 <= a < 1e15. D is taken from log10 and corrected by one where
    N falls outside [10**16, 10**17)."""
    d = np.log10(a)
    d = np.floor(d, out=d).astype(np.int8)
    digits = _round_scaled(a, d)
    off = np.flatnonzero((digits - 10 ** 16).view(_U64) >= _U64(9 * 10 ** 16))
    if len(off):
        d[off] += np.where(digits[off] < 10 ** 16, -1, 1)
        digits[off] = _round_scaled(a[off], d[off])
    return d, digits


def _ascii(digits: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits of each N as ASCII bytes 1-17 of three words, and the
    count of N's trailing decimal zeros; ``digits`` is overwritten. Each
    4-digit group is dropped once its ASCII is in a word, so the stage holds
    six arrays of ``digits``' size at most."""
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    lead = np.floor_divide(digits, 10 ** 16, out=digits)  # the caller keeps digits alive
    high -= lead * 10 ** 8
    groups = []  # N = lead * 10**16 + the 4-digit groups g0 g1 g2 g3
    for part in (high, low):
        top = part // 10_000
        part -= top * 10_000
        groups += [top, part]
    del high, low, top, part
    zeros = _TRAILING_ZEROS4[groups[3]]
    more = np.flatnonzero(zeros == 4)
    for i in (2, 1, 0):
        if not len(more):
            break
        extra = _TRAILING_ZEROS4[groups[i][more]]
        zeros[more] += extra
        more = more[extra == 4]
    s1 = _DIGITS4[groups.pop()]  # each group's ASCII in 32 bits: g2 g3, then g0 g1
    s1 <<= _U64(32)
    s1 |= _DIGITS4[groups.pop()]
    s0 = _DIGITS4[groups.pop()]
    s0 <<= _U64(32)
    s0 |= _DIGITS4[groups.pop()]
    s2 = s1 >> _U64(48)
    s1 <<= _U64(16)
    s1 |= s0 >> _U64(48)
    s0 <<= _U64(16)
    lead += ord("0")
    lead <<= 8
    s0 |= lead.view(_U64)
    return [s0, s1, s2], zeros


def _format_chunk(values: np.ndarray, slots: np.ndarray, n_cols: int) -> None:
    """Fill ``slots[:len(values)]``, rows of _SLOT bytes, with the slots of
    ``values``, whole rows of ``n_cols`` values each.

    For 1e-4 <= |x| < 1e15, ``%.17g`` prints fixed-point: the 17 digits of
    |x| (``_decimal``) with a point after digit D + 1 (D >= 0) or behind
    ``0.`` and -D - 1 zeros (D < 0), less the fraction's trailing zeros. A
    zero is "0" or "-0"; every other value is formatted by ``%``,
    _PERCENT_VALUES at a time. All values go through the fixed-point path,
    those outside the window as 0.1, and then their slots are overwritten.
    Every stage holds at most seven arrays of the chunk's size, 56 bytes per
    value."""
    slots = slots[:len(values)]
    a = np.abs(values)
    inside = _in_window(a)
    np.putmask(a, ~inside, 0.1)
    d, digits = _decimal(a)
    del a
    s, zeros = _ascii(digits)
    del digits
    form = (d + 4).astype(np.int64)
    form *= 17
    form += zeros  # 17 * (D + 4) + z, each value's column of the form tables
    del d, zeros
    shift = _SHIFTS[form]
    for w in (2, 1, 0):  # word w takes the bytes that the shift moves out of word w - 1
        word = s[w]
        stay = word & _STAYS[w][form] if w < 2 else _U64(0)
        word <<= shift
        if w:
            back = np.subtract(_U64(64), shift)
            word |= np.right_shift(s[w - 1], back, out=back)
            del back
        word &= _MOVES[w][form]
        word |= stay
        word |= _MARKS[w][form]
        slots[:, w] = word
        s[w] = word = stay = None
    del shift, form
    slots[:, 3] = 0
    text = slots.view(np.uint8)
    text[:, 0] = np.signbit(values)
    text[:, 0] *= ord("-")
    text[:, -1] = ord(",")
    text[n_cols - 1::n_cols, -1] = ord("\n")
    slow = np.flatnonzero(~inside)
    if len(slow):
        is_zero = values[slow] == 0
        zero, slow = slow[is_zero], slow[~is_zero]
        slots[zero, 0] = np.signbit(values[zero]) * _U64(ord("-")) | _U64(ord("0") << 8)
        slots[zero, 1:3] = 0
        for start in range(0, len(slow), _PERCENT_VALUES):
            batch = slow[start:start + _PERCENT_VALUES]
            texts = _PERCENT_FORMAT * len(batch) % tuple(values[batch].tolist())
            text[batch, :-1] = np.frombuffer(texts.translate(_SPACE_TO_NUL), np.uint8).reshape(
                -1, _SLOT - 1)


def _in_window(a: np.ndarray) -> np.ndarray:
    """Whether each magnitude in ``a`` lies in the window that ``_format_chunk``
    prints from its 17 digits, 1e-4 <= |x| < 1e15."""
    inside = a >= 1e-4
    inside &= a < 1e15
    return inside


def _formatting_beats_parsing(values: np.ndarray) -> bool:
    """Whether a matrix whose values are like ``values`` is formatted faster
    than its text is parsed: whether at least 9 in 10 of them lie in the
    formatter's window. On a 2-vCPU Xeon the formatter took 95-160 ns for a
    value in its window, about 120 ns for a zero and about 700 ns for any
    other value, which goes through ``%``; ``read_columns_csv`` took 11-15 ns
    per byte, about 250 ns for a 17-digit value but about 30 ns for ``0,``.
    A hat's initial state, mostly zeros, has 2 in 10 in the window; a sine's
    has all of them."""
    return 10 * np.count_nonzero(_in_window(np.abs(values))) >= 9 * np.size(values)


def _csv_blocks(path: str | Path, header: str, columns: list) -> Iterator[bytes]:
    """The bytes of the CSV of ``header`` and ``columns``, as blocks: the
    header line, then the lines of max(1, _CHUNK_VALUES // width) rows at a
    time. Columns of unequal length, or not as wide in all as the header,
    raise ValueError naming ``path`` at the call, before any block."""
    n_cols = header.count(",") + 1
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    if (sum(column.shape[1] if column.ndim > 1 else 1 for column in columns) != n_cols
            or any(len(column) != len(columns[0]) for column in columns)):
        raise ValueError(f"{path}: columns of shapes {[c.shape for c in columns]} "
                         f"for {n_cols} header columns")

    def blocks() -> Iterator[bytes]:
        yield (header + "\n").encode()
        block = max(1, _CHUNK_VALUES // n_cols)
        buffer = bytearray(block * n_cols * _SLOT)
        slots = np.frombuffer(buffer, "<u8").reshape(-1, _SLOT // 8)
        for start in range(0, len(columns[0]), block):
            values = np.column_stack([c[start:start + block] for c in columns]).ravel()
            _format_chunk(values, slots, n_cols)
            slots[len(values):] = 0
            yield buffer.translate(None, b"\0")

    return blocks()


def write_columns_csv(path: str | Path, header: str, columns: list) -> None:
    """Write the header line, then one line per row of ``columns``, stacked as
    ``np.column_stack`` stacks them (a 1-D array is one column, a 2-D array
    gives its columns), each value printed as ``'%.17g' % float(value)``
    does. Columns of unequal length, or not as wide in all as the header,
    raise ValueError. The rows are formatted a block at a time
    (``_csv_blocks``), so a large file never exists as one string or one array."""
    blocks = _csv_blocks(path, header, columns)
    with open(path, "wb") as f:
        f.writelines(blocks)


def _csv_matches(path: str | Path, header: str, columns: list) -> bool:
    """Whether the file at ``path`` holds exactly the bytes ``write_columns_csv``
    writes for ``header`` and ``columns``. Each block is compared with as many
    bytes read from the file, which must end after the last, so neither the
    file nor the text of the columns is ever held whole."""
    with open(path, "rb") as f:
        return (all(f.read(len(block)) == block for block in _csv_blocks(path, header, columns))
                and not f.read(1))


def read_columns_csv(path: str | Path, header: str) -> np.ndarray:
    """Inverse of write_columns_csv for a file with exactly the ``header`` line;
    returns an array with one column per column of the header, empty for a
    header-only file.

    The lines are counted first and passed to loadtxt as its row limit, so
    that it allocates the array once, at its size for a file a run wrote.
    Left to grow the array, loadtxt reallocates it row block by row block,
    and after a run has freed an array of that size the freed blocks stay
    resident: at N = 10^4, reading solution.csv that way raised the
    resident set by 23 MB for a 12 MB array."""
    n_cols = header.count(",") + 1
    with open(path, encoding="utf-8") as f:
        try:
            if f.readline().rstrip("\n") != header:
                names = header.split(",")
                shown = header if n_cols <= 8 else f"{','.join(names[:3])},...,{names[-1]}"
                raise CorruptRunError(f"{path} does not have the header {shown}")
            start = f.tell()
            n_lines = sum(1 for _ in f)  # at least the number of rows
        except UnicodeDecodeError as err:
            raise CorruptRunError(f"{path} is not UTF-8 text: {err}") from err
        f.seek(start)
        if n_lines == 0:
            return np.empty((0, n_cols))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
            try:
                data = np.loadtxt(f, delimiter=",", ndmin=2, max_rows=n_lines)
            except ValueError as err:
                raise CorruptRunError(f"{path}: {err}") from err
    if data.shape[0] == 0:
        return np.empty((0, n_cols))
    if data.shape[1] != n_cols:
        raise CorruptRunError(f"{path}: expected {n_cols} columns, got {data.shape[1]}")
    return data


def _json_value(value):
    """``value`` as ``write_json`` stores it: each non-finite float replaced by
    its name, "inf", "-inf" or "nan", which strict JSON has no number for,
    and each tuple by a list."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON, a non-finite float as its name,
    atomically: into ``<name>.tmp``, then renamed over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(_json_value(payload), indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
    os.replace(tmp, path)


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
