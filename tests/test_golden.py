"""Golden record of the bundled Fig. 1 conversion scenarios.

tests/golden/ holds the CSVs that `omtransfer run` wrote for the four
bundled `convert` configs before sweeps were integrated as one batch.  The
header and the blank analytic cells must match exactly, numbers to 1e-12
relative.
"""

from pathlib import Path

import pytest

from omtransfer.cli import main

ROOT = Path(__file__).resolve().parent
SCENARIO_DIR = ROOT.parent / "scenarios"
GOLDEN_DIR = ROOT / "golden"


@pytest.mark.parametrize("name", ["fig1b", "fig1b_squeezed", "fig1c", "fig1c_squeezed"])
def test_convert_scenario_matches_golden(name, tmp_path):
    assert main(["run", str(SCENARIO_DIR / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
    got = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    want = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_line, want_line in zip(got[1:], want[1:]):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells)
        for g, w in zip(got_cells, want_cells):
            if w == "":
                assert g == ""
            else:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0)
