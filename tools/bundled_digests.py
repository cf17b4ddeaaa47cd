"""Print the sha256 of every artifact the bundled configs write.

    python3 tools/bundled_digests.py [CONFIG ...]

Runs each CONFIG (default: every scenarios/*.cfg) through
omtransfer.cli.main, from the src/ of this checkout, into a temporary
directory, and captures its stdout.  Prints one `sha256  name` line per CSV
written and one per captured stdout (named `<config stem>_stdout.txt`, as in
tests/golden/), sorted by name.  Exits 1 if a run exits non-zero.  Two
checkouts that print the same lines wrote the same bytes.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from omtransfer.cli import main as cli_main  # noqa: E402


def digests(config: Path) -> tuple[int, dict[str, str]]:
    """The CLI's exit code for one config and the sha256 of each artifact by name."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        code = cli_main(["run", str(config), "--out", tmp])
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path(tmp).iterdir()}
    found[f"{config.stem}_stdout.txt"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, found


def main(argv: list[str]) -> int:
    configs = [Path(a) for a in argv] or sorted((ROOT / "scenarios").glob("*.cfg"))
    status, lines = 0, []
    for config in configs:
        code, found = digests(config)
        if code != 0:
            print(f"{config}: exit code {code}", file=sys.stderr)
            status = 1
        lines += [f"{digest}  {name}" for name, digest in found.items()]
    for line in sorted(lines, key=lambda line: line.split("  ", 1)[1]):
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
