"""Deterministic CSV assembly and atomic file writing.

All CSV output uses comma delimiters, LF line endings, a header row, and
floats rendered with 12 significant digits so identical inputs always
produce byte-identical files.

``build_csv`` takes either a 2-D float64 ``ndarray``, a whole numeric table
formatted by one ``%`` with a ``%.12g`` template per cell, or any iterable of rows
whose cells may mix floats, ints, bools and strings (blank analytic cells),
formatted cell by cell with ``format_value``.  Equal floats give equal bytes.
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
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64 and len(rows):
        # one % over the whole table: the row template repeated once per row
        template = "\n".join([",".join(["%.12g"] * rows.shape[1])] * len(rows))
        lines.append(template % tuple(rows.ravel().tolist()))
    else:
        lines += [",".join(map(format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


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
