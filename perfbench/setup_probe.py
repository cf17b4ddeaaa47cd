"""Measure one set-up in a fresh interpreter: import omtransfer, then parse
every generated config or build every library input.

    python3 perfbench/setup_probe.py ITEMS_JSON

prints the elapsed seconds. The clock starts before the package import.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(path: str) -> None:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import package

    start = time.perf_counter()
    om = package.load(HERE.parent)
    import workloads

    items = [workloads.Item(**entry) for entry in raw]
    workloads.setup(om, items)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
