"""Command-line front end.

    omtransfer run <config> [--out DIR] [--jobs N]
    omtransfer validate <config>

Exit codes: 0 success, 1 configuration error, 2 numeric/runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .scenarios import emit_summary, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omtransfer",
        description="Three-mode optomechanical network: state conversion and pulse transmission scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config and write CSV artifacts")
    run.add_argument("config", type=Path)
    run.add_argument("--out", type=Path, default=Path("."), help="output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="kept for compatibility, must be >= 1; runs are single-threaded")

    val = sub.add_parser("validate", help="parse and validate a scenario config")
    val.add_argument("config", type=Path)
    return parser


def _load(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"OK: {config.scenario} scenario, {config.n_runs} run(s) planned")
        return 0

    if args.jobs < 1:
        print("config error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        artifacts = run_scenario(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    return emit_summary(artifacts)


if __name__ == "__main__":
    sys.exit(main())
