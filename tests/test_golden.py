"""Golden record of the bundled Fig. 1 and Fig. 2 scenarios.

tests/golden/ holds the CSVs that `omtransfer run` wrote for the four
bundled `convert` configs before sweeps were integrated as one batch.  The
header and the blank analytic cells must match exactly, numbers to 1e-12
relative.

It also holds every CSV of the bundled fig2a, fig2b and fig2cd configs,
written before T(w) became one batched solve.  Headers and row counts must
match exactly, numbers to 1e-11 relative or 1e-15 absolute: one flip in the
12th printed digit, plus cancellation in the small T(w) entries.  The
bundled engineer_step CSVs, written while the pulse path still exponentiated
full 5x5 Magnus generators, are held to the same tolerances.

Three columns pin numerical error rather than physics, and are held to
their own relative tolerance (COLUMN_RTOL): the golden F_numeric,
F_reference and delta_F carry the truncation error of the moment
integrator that wrote them.  Each tolerance was set as the column's
accuracy bound against an independent reference (the mpmath solve in
tests/reference/, bounded in tests/test_rk4_kernel.py, since tightened)
plus the golden value's measured distance to that reference, print
rounding included, rounded up.  half_width_numeric and its stdout keys
were re-recorded from the polynomial root that half_width returns (held
to 1e-14 of an independent root in tests/test_transmission.py), so they
are held to the Fig. 2 default; the bisection values they replaced were
up to 1.64e-10 relative away.
"""

from pathlib import Path

import numpy as np
import pytest

from omtransfer.cli import main

ROOT = Path(__file__).resolve().parent
SCENARIO_DIR = ROOT.parent / "scenarios"
GOLDEN_DIR = ROOT / "golden"

COLUMN_RTOL = {
    "F_numeric": 2e-12,  # bound 1e-12 + measured 9.2e-13 (fig1c_squeezed)
    "F_reference": 2e-12,  # bound 1e-12 + measured 8.2e-13 (fig1c)
    "delta_F": 3e-11,  # bound 1.5e-11 + measured 1.1e-11 (fig1c row 0)
}


@pytest.mark.parametrize("name", ["fig1b", "fig1b_squeezed", "fig1c", "fig1c_squeezed"])
def test_convert_scenario_matches_golden(name, tmp_path):
    assert main(["run", str(SCENARIO_DIR / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
    got = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    want = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for got_line, want_line in zip(got[1:], want[1:]):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells)
        for column, g, w in zip(header, got_cells, want_cells):
            if w == "":
                assert g == ""
            else:
                assert float(g) == pytest.approx(float(w), rel=COLUMN_RTOL.get(column, 1e-12), abs=0.0), column


FIG2_FILES = {
    "fig2a": [f"fig2a_{i:03d}.csv" for i in range(1, 5)],
    "fig2b": [f"fig2b_{i:03d}_{io}.csv" for i in range(1, 6) for io in ("in", "out")]
    + ["fig2b_summary.csv"],
    "fig2cd": [f"fig2cd_{i:03d}_{io}.csv" for i in range(1, 3) for io in ("in", "out")]
    + ["fig2cd_summary.csv"],
    "engineer_step": [f"engineer_step_{part}.csv" for part in ("in", "out", "summary")],
}


@pytest.mark.parametrize("name", sorted(FIG2_FILES))
def test_fig2_scenario_matches_golden(name, tmp_path):
    assert main(["run", str(SCENARIO_DIR / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIG2_FILES[name])
    for file in FIG2_FILES[name]:
        got = (tmp_path / file).read_text(encoding="utf-8").splitlines()
        want = (GOLDEN_DIR / file).read_text(encoding="utf-8").splitlines()
        assert got[0] == want[0], file
        assert len(got) == len(want), file
        got_cells = np.array([line.split(",") for line in got[1:]], dtype=float)
        want_cells = np.array([line.split(",") for line in want[1:]], dtype=float)
        for column, g, w in zip(want[0].split(","), got_cells.T, want_cells.T):
            rtol = COLUMN_RTOL.get(column, 1e-11)
            np.testing.assert_allclose(g, w, rtol=rtol, atol=1e-15, err_msg=f"{file} {column}")
