"""Deterministic CSV assembly and atomic file writing.

All CSV output uses comma delimiters, LF line endings, a header row, and
floats rendered with 12 significant digits so identical inputs always
produce byte-identical files.

``build_csv`` takes either a 2-D float64 ``ndarray`` or any iterable of rows
whose cells may mix floats, ints, bools and strings (blank analytic cells),
formatted cell by cell with ``format_value``.  Either way every float cell
is exactly ``'%.12g' % v``, the cells joined by ``,`` and each row ended by
``\\n``.  A float table is formatted by numpy in blocks of rows: a cell's
12-digit mantissa is rint(v * 10**(11 - x)), one float64 product with a
correctly rounded power of ten, which lies within 2.3e-4 of the exact
value; a cell whose product lies within 5e-4 of a rounding tie, and a
non-finite, subnormal or extreme cell, is formatted by ``%`` instead.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_value", "build_csv", "write_atomic"]


def format_value(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def build_csv(header: Sequence[str], rows: Iterable[Sequence] | np.ndarray) -> str:
    """The CSV text of ``header`` and ``rows``: each float cell exactly ``'%.12g' % v``.

    Cells are joined by ``,`` and each row ended by ``\\n``.  A 2-D float64
    ``ndarray`` is formatted by numpy (``_format_table``), whose 12-digit
    mantissas come from one float64 product within 2.3e-4 of exact, and by
    ``%`` within 5e-4 of a rounding tie; any other rows are formatted cell by
    cell by ``format_value``.  Both give the same bytes.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64 and rows.size:
        return lines[0] + "\n" + _format_table(rows)
    lines += [",".join(map(format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


# Each cell is laid out in one 40-byte slot of five uint64 words: (sign, "0.000"
# prefix), three words of four (digit, point) byte pairs, (exponent, separator).
# Unused bytes stay NUL and are deleted at the end.  _LEAD, _EXPONENT, _KEEP_X
# and _POINT_X are indexed by the printed decimal exponent X plus _X0, and fold
# in %g's choice of fixed (-4 <= X < 12) or scientific notation.
_X0 = 300
_X = np.arange(-_X0, _X0 + 1)
_SCI = (_X < -4) | (_X >= 12)
_POW10 = np.add("1e", np.arange(-_X0, _X0 + 9).astype(str)).astype(np.float64)  # 10**(k - _X0), correctly rounded
_BLOCK = 4096  # cells per block, which keeps the temporaries small


def _words(table: np.ndarray) -> np.ndarray:
    """The rows of a uint8 table of width 8k as k native-order uint64 words."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64)


def _lead_words() -> np.ndarray:
    """Sign and prefix, indexed by X + _X0, plus len(_X) for a negative cell."""
    k = np.where(_SCI, 0, np.clip(-_X, 0, 4))  # fixed X < 0 prints "0." and -X-1 zeros
    b = np.zeros((2, len(_X), 8), np.uint8)
    b[1, :, 0] = ord("-")
    b[:, :, 1] = np.where(k > 0, ord("0"), 0)
    b[:, :, 2] = np.where(k > 0, ord("."), 0)
    b[:, :, 3:6] = np.where(np.arange(3) < k[:, None] - 1, ord("0"), 0)
    return _words(b).ravel()


def _digit_words() -> np.ndarray:
    """The four digits of 0000..9999, each followed by a point."""
    b = np.zeros((10_000, 8), np.uint8)
    b[:, ::2] = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
    b[:, 1::2] = ord(".")
    return _words(b).ravel()


def _mask_words() -> np.ndarray:
    """Each digit word's masks, indexed by 13 * keep + point: digits 0..keep, a point after digit `point` (12: none)."""
    slot = np.arange(12)
    keep, point = np.divmod(np.arange(12 * 13), 13)
    b = np.zeros((12 * 13, 12, 2), np.uint8)
    b[:, :, 0] = np.where(slot <= keep[:, None], 0xFF, 0)
    b[:, :, 1] = np.where(slot == point[:, None], 0xFF, 0)
    return np.ascontiguousarray(_words(b.reshape(-1, 24)).T)


def _exponent_words() -> np.ndarray:
    """The exponent, e+XX with at least two digits, for each X printed in scientific notation; none in fixed."""
    a = np.abs(_X)[:, None]
    digits = a // [100, 10, 1] % 10 + ord("0")
    b = np.zeros((len(_X), 8), np.uint8)
    b[:, 0] = ord("e")
    b[:, 1] = np.where(_X < 0, ord("-"), ord("+"))
    b[:, 2:5] = np.where(a >= 100, digits, np.roll(digits, -1, axis=1) * [1, 1, 0])
    b[~_SCI] = 0
    return _words(b).ravel()


def _trailing_zeros() -> np.ndarray:
    """The number of zeros that end each of 0000..9999."""
    count = np.zeros((10,) * 4, np.intp)  # indexed by the four digits
    for k in range(1, 5):
        count[(...,) + (0,) * k] += 1
    return count.ravel()


_LEAD = _lead_words()
_DIGITS = _digit_words()
_MASKS = _mask_words()
_EXPONENT = _exponent_words()
_KEEP_X = np.where(_SCI | (_X < 0), 0, _X)  # fixed X >= 0 keeps digits 0..X, trailing zeros too
_POINT_X = np.where(_SCI, 0, np.where(_X < 0, 12, _X))  # the digit a point may follow
_TRAILING = _trailing_zeros()
_SEPARATOR = np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"\n", np.uint64)  # the last byte of a slot


def _format_table(table: np.ndarray) -> str:
    """The rows of a 2-D float64 table as CSV lines, each cell exactly ``'%.12g' % v``."""
    step = max(1, _BLOCK // table.shape[1])
    return b"".join(_format_block(table[i : i + step]) for i in range(0, len(table), step)).decode("ascii")


def _format_block(table: np.ndarray) -> bytes:
    """``_format_table`` of a few rows, as bytes.

    For v = |cell| in [1e-290, 1e290), x = floor(log10 v), corrected by one
    decade, puts y = v * 10**(11 - x) (one product with a correctly rounded
    power of ten) in [1e11, 1e12).  y is within (2u + u^2) 1e12 < 2.3e-4 of its
    exact value (u = 2**-53), so rint(y) is the correctly rounded 12-digit
    mantissa unless y lies within 5e-4 of a half-integer; rint(y) = 1e12
    carries into the next decade.  Those cells, and every non-finite,
    subnormal or out-of-range nonzero cell, are formatted by ``%`` one by one.
    """
    v = np.abs(table)
    regular = (v >= 1e-290) & (v < 1e290)
    v = np.where(regular, v, 1.0)
    x = np.floor(np.log10(v)).astype(np.intp)
    y = v * _POW10.take(_X0 + 11 - x)
    x += y >= 1e12
    x -= y < 1e11
    y = v * _POW10.take(_X0 + 11 - x)
    mantissa = np.rint(y)
    fallback = (~regular & (table != 0)) | (np.abs(y - mantissa) > 0.4995)
    carry = mantissa == 1e12
    x += carry
    digits = np.where(regular, np.where(carry, 1e11, mantissa), 0.0).astype(np.intp)  # a zero prints "0"
    head = digits // 100_000_000  # the mantissa's three 4-digit chunks
    low = digits - head * 100_000_000
    mid = low // 10_000
    tail = low - mid * 10_000
    trailing = _TRAILING.take(tail)
    trailing += (trailing == 4) * _TRAILING.take(mid)
    trailing += (trailing == 8) * _TRAILING.take(head)
    last = 11 - trailing  # the last nonzero digit; -1 for zero
    xi = x + _X0
    point = _POINT_X.take(xi)
    mask = 13 * np.maximum(last, _KEEP_X.take(xi)) + np.where(last > point, point, 12)  # a point needs a digit after it
    words = np.empty(table.shape + (5,), np.uint64)
    words[..., 0] = _LEAD.take(xi + len(_X) * np.signbit(table))
    for j, chunk in enumerate((head, mid, tail)):
        words[..., 1 + j] = _DIGITS.take(chunk) & _MASKS[j].take(mask)
    last_column = np.arange(table.shape[1]) == table.shape[1] - 1
    words[..., 4] = _EXPONENT.take(xi) | _SEPARATOR.take(last_column)  # "," or, ending a row, "\n"
    cells = words.view(np.uint8).reshape(-1, 40)
    where = np.flatnonzero(fallback)
    text = b"".join(b"%-39.12g" % value for value in table.ravel()[where].tolist())
    cells[where, :39] = np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(-1, 39)
    return cells.tobytes().translate(None, b"\0")


def write_atomic(path: Path, text: str) -> Path:
    """Write via a sibling temp file and rename, so readers never see partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
