"""Golden record of the summary lines `omtransfer run` prints.

tests/golden/<name>_stdout.txt holds the stdout of the eight scenarios whose
CSVs tests/test_golden.py pins, recorded before every scenario kind ran
through one point loop (engineer_step's before its pulse path exponentiated
block-triangular generators).  Labels, keys and key order must match exactly;
numbers match at the tolerance of that scenario's CSV golden, and the keys
that print a column test_golden.COLUMN_RTOL re-anchors at that column's
tolerance.
"""

from pathlib import Path

import numpy as np
import pytest

from omtransfer.cli import main
from test_golden import COLUMN_RTOL

ROOT = Path(__file__).resolve().parent
SCENARIO_DIR = ROOT.parent / "scenarios"
GOLDEN_DIR = ROOT / "golden"

# (rtol, atol) of each scenario's CSV golden
TOLERANCE = {
    **dict.fromkeys(["fig1b", "fig1b_squeezed", "fig1c", "fig1c_squeezed"], (1e-12, 0.0)),
    **dict.fromkeys(["fig2a", "fig2b", "fig2cd", "engineer_step"], (1e-11, 1e-15)),
}
# relative tolerance of the keys whose CSV column holds numerical error
KEY_RTOL = {"F": COLUMN_RTOL["F_numeric"], **COLUMN_RTOL}


def _parse(line):
    label, *pairs = line.split(" ")
    keys, values = zip(*(pair.split("=", 1) for pair in pairs))
    return label, keys, [float(v) for v in values]


@pytest.mark.parametrize("name", sorted(TOLERANCE))
def test_summary_matches_golden(name, tmp_path, capsys):
    assert main(["run", str(SCENARIO_DIR / f"{name}.cfg"), "--out", str(tmp_path)]) == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN_DIR / f"{name}_stdout.txt").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    rtol, atol = TOLERANCE[name]
    for got_line, want_line in zip(got, want):
        got_label, got_keys, got_values = _parse(got_line)
        want_label, want_keys, want_values = _parse(want_line)
        assert (got_label, got_keys) == (want_label, want_keys)
        for key, g, w in zip(got_keys, got_values, want_values):
            np.testing.assert_allclose(g, w, rtol=KEY_RTOL.get(key, rtol), atol=atol, err_msg=f"{key} in {got_line}")
