"""Every name a module lists in ``__all__`` exists, and the package root imports only listed names.

A stale ``__all__`` entry otherwise shows only when someone runs
``from omtransfer.<module> import *``.  The shapes of a ``Trajectory``'s
stacks are public too.
"""

import ast
import importlib
import pkgutil
from collections.abc import Sequence
from pathlib import Path

import pytest

import omtransfer
from omtransfer import gaussian, model

MODULES = sorted(m.name for m in pkgutil.iter_modules(omtransfer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"omtransfer.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(omtransfer.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"omtransfer.{node.module}").__all__
    ]
    assert unlisted == []


def test_trajectory_holds_stacks_and_a_state_sequence():
    state0 = gaussian.embed_initial(gaussian.make_squeezed_coherent(1.0, 0.3, 0.2), 0.5)
    traj = gaussian.integrate(state0, model.SystemParams(0.1, 0.2), model.TrigSchedule(1.0, 5.0), 5.0, n_samples=21)
    s = len(traj.times)
    assert (traj.times.shape, traj.mean.shape, traj.normal.shape, traj.anomalous.shape) == (
        (s,), (s, 3), (s, 3, 3), (s, 3, 3)
    )
    assert traj.mean.dtype == traj.normal.dtype == traj.anomalous.dtype == complex
    assert isinstance(traj.states, Sequence) and len(traj.states) == s
    assert isinstance(traj.final, gaussian.ThreeModeGaussianState)
