"""tools/bundled_digests.py, the byte-identity check of the bundled configs' artifacts."""

import hashlib
import importlib.util
from pathlib import Path

from omtransfer.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bundled_digests.py"
_spec = importlib.util.spec_from_file_location("bundled_digests", TOOL)
bundled_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundled_digests)

CONFIG = ROOT / "scenarios" / "fig2a.cfg"


def test_two_runs_print_the_digests_of_the_files_the_cli_writes(tmp_path, capsys):
    runs = []
    for _ in range(2):
        assert bundled_digests.main([str(CONFIG)]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert main(["run", str(CONFIG), "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    want["fig2a_stdout.txt"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert runs[0] == [f"{want[name]}  {name}" for name in sorted(want)]


def test_a_failing_run_exits_non_zero(tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text(CONFIG.read_text(encoding="utf-8").replace("type = spectrum", "type = nothing"), encoding="utf-8")
    assert bundled_digests.main([str(config)]) == 1
