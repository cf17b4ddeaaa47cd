"""The benchmark's output gate rejects deliberately wrong outputs.

    python3 -m pytest perfbench -q

Each test first shows that the gate passes the program's real output, then
that it fails a corrupted one.
"""

import dataclasses
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import package  # noqa: E402
import run  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

om = package.load(run.ROOT)


def _item(workload, kind, seed=1):
    items = workloads.generate(workload, seed)
    return next(i for i in items if i.kind == kind)


def _run(item, tmp_path):
    runner = run.CliRunner(om, [item], tmp_path)
    output, _ = runner.collect(item, runner.run(item))
    return runner, output


def _bump_6th_digit(cell: str) -> str:
    value = float(cell)
    return f"{value + 10.0 ** (math.floor(math.log10(abs(value))) - 5):.12g}"


def _replace_cell(text: str, row: int, col: int, new: str) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = new
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_spectrum_value_changed_in_6th_digit_fails(tmp_path):
    item = _item("pulse_spectrum", "spectrum")
    runner, output = _run(item, tmp_path)
    assert runner.check(item, output) == []
    name = sorted(output["files"])[0]
    header, rows = oracles.parse_csv(output["files"][name])
    row, col = len(rows) // 2, header.index("re_t31")  # T31 at omega = 0
    files = dict(output["files"])
    files[name] = _replace_cell(files[name], row, col, _bump_6th_digit(rows[row][col]))
    errors = runner.check(item, {**output, "files": files})
    assert any("T31(0)" in e for e in errors) and any("unitary" in e for e in errors)


def test_conversion_fidelity_changed_in_6th_digit_fails(tmp_path):
    item = _item("convert_sweep", "convert")
    runner, output = _run(item, tmp_path)
    assert runner.check(item, output) == []
    (name,) = output["files"]
    header, rows = oracles.parse_csv(output["files"][name])
    row, col = item.spec["check_point"], header.index("F_numeric")  # the point solved by the reference
    bad = _replace_cell(output["files"][name], row, col, _bump_6th_digit(rows[row][col]))
    errors = runner.check(item, {**output, "files": {name: bad}})
    assert any("F_numeric" in e and "reference" in e for e in errors)


def test_transmit_with_g1_g2_swapped_fails(tmp_path):
    item = _item("pulse_spectrum", "transmit")
    spec = dict(item.spec, params={"kappa1": 0.32, "kappa2": 0.16, "gamma_m": 0.001},
                schedule={"type": "constant", "g1": 4.0, "g2": 3.0})
    text = re.sub(r"kappa1 = .*", "kappa1 = 0.32", item.text)
    text = re.sub(r"kappa2 = .*", "kappa2 = 0.16", text)
    text = re.sub(r"gamma_m = .*", "gamma_m = 0.001", text)
    good = dataclasses.replace(item, spec=spec, text=re.sub(r"g1 = .*\ng2 = .*", "g1 = 4.0\ng2 = 3.0", text))
    swapped = dataclasses.replace(good, text=re.sub(r"g1 = .*\ng2 = .*", "g1 = 3.0\ng2 = 4.0", text))
    runner, output = _run(good, tmp_path / "good")
    assert runner.check(good, output) == []
    runner, output = _run(swapped, tmp_path / "swapped")
    errors = runner.check(good, output)
    assert any("_out.csv: differs from the reference" in e for e in errors)
    assert any("t31_0" in e for e in errors)


def test_trajectory_fidelity_off_by_1e_5_fails():
    item = _item("trajectory_study", "trajectory")
    item.spec["T"] = 10.0  # a short stretch of the same schedule keeps the test fast
    workloads.setup(om, [item])
    result = workloads.run_trajectory(om, item)
    assert oracles.check_trajectory(item.spec, result) == []
    result["fock_fidelity"] += 1e-5
    assert any("Fock oracle" in e for e in oracles.check_trajectory(item.spec, result))


def test_output_that_changes_between_runs_fails():
    class Drifting:
        calls = 0

        def prepare(self, item):
            pass

        def run(self, item):
            self.calls += 1
            return self.calls

        def collect(self, item, raw):
            return raw, "digest-1" if raw == 1 else "digest-2"

        def check(self, item, output):
            return []

    items = [workloads.Item("x", "convert", 1, {})]
    tally = run.Tally()
    runner = Drifting()
    run.run_pass(runner, items, tally)
    run.run_pass(runner, items, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from the first run" in tally.errors[0]


def test_without_the_package_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pulse_spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
