"""Import omtransfer from the checkout's own source tree (stdlib only)."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

MODULES = ("adiabatic", "cli", "config", "csvio", "gaussian", "model", "scenarios", "spectral", "transmission")


def load(root: Path) -> SimpleNamespace:
    """The package modules from root/src; an installed copy elsewhere is refused."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import omtransfer

    where = Path(omtransfer.__file__).resolve().parent
    if where != (src / "omtransfer").resolve():
        raise ImportError(f"omtransfer imported from {where}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"omtransfer.{m}") for m in MODULES})
