"""The extended-precision Fig. 1 reference, read from tests/reference/fig1_reference.csv.

tests/reference/make_fig1_reference.py writes that file offline with
mpmath at 32 digits; this module only parses it, so tier-1 never imports
mpmath.  The file's first line is a comment recording the mpmath version
and the generator's sha256, the second the column names.  The module also
computes the program's F and delta_F of the same sweeps, to hold them
against the reference.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np

from omtransfer import gaussian
from omtransfer.config import apply_sweep_point, parse_config

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
GENERATOR = REFERENCE_DIR / "make_fig1_reference.py"
CSV = REFERENCE_DIR / "fig1_reference.csv"
CONFIGS = ("fig1b", "fig1b_squeezed", "fig1c", "fig1c_squeezed")
DELTA_F_CONFIGS = ("fig1c", "fig1c_squeezed")


def read() -> tuple[str, list[dict[str, str]]]:
    """The header comment and one dict of cells per row."""
    comment, names, *lines = CSV.read_text(encoding="utf-8").splitlines()
    return comment, [dict(zip(names.split(","), line.split(","))) for line in lines]


def column(name: str, key: str) -> np.ndarray:
    """A numeric column of one config's rows, in sweep order."""
    return np.array([float(row[key]) for row in read()[1] if row["config"] == name])


def sweep(name: str) -> list:
    """The configs of a bundled scenario's sweep points."""
    config = parse_config((SCENARIO_DIR / f"{name}.cfg").read_text(encoding="utf-8"))
    return [apply_sweep_point(config, idx) for idx in range(config.n_runs)]


@functools.lru_cache(maxsize=None)
def program_fidelities(name: str, serial: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """F and delta_F of every sweep point, as `omtransfer run` computes them.

    The points and their quiet-bath twins run as one gaussian.integrate_batch
    call; with serial every row is integrated on its own by gaussian.integrate.
    Results are cached: a test that patches the program calls
    program_fidelities.__wrapped__.
    """
    cfgs = sweep(name)
    schedule = cfgs[0].schedule
    initials = [gaussian.make_squeezed_coherent(c.alpha, c.r, c.phi) for c in cfgs]
    states0 = [gaussian.embed_initial(s, c.mech_occupation) for s, c in zip(initials, cfgs)] * 2
    params = [c.params for c in cfgs]
    params += [dataclasses.replace(p, gamma_m=0.0, n_th=0.0) for p in params]
    if serial:
        finals = [gaussian.integrate(st, p, schedule, schedule.duration).final for st, p in zip(states0, params)]
    else:
        finals = gaussian.integrate_batch(states0, params, schedule, schedule.duration)
    fid = np.array([
        gaussian.gaussian_fidelity(initials[i % len(cfgs)], gaussian.reduce_to_mode(st, 3))
        for i, st in enumerate(finals)
    ])
    f_num, f_quiet = np.split(fid, 2)
    return f_num, np.abs(f_num - f_quiet)
