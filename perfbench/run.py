"""Seeded end-to-end and per-layer benchmark of omtransfer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. One process, one thread: BLAS/OpenMP pools are pinned to
one thread and the CLI runs with --jobs 1.

A run generates one pass of items from the seed, times whole passes until
S seconds of item time have accumulated, checks the first pass's outputs
against independent references and later passes for byte-identical
outputs, and prints one JSON line last. --trace 0 reports the end-to-end
metrics. --trace 1 runs one untraced pass, then alternates traced and
untraced passes until S/2 seconds are traced, and reports per-layer
metrics per traced pass plus the tracing overhead (traced over untraced
item time). Run metadata and, for traced runs, every span go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

import oracles
import package
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


class CliRunner:
    """Items are config files run through omtransfer.cli.main in-process."""

    def __init__(self, om, items, work: Path) -> None:
        self.om = om
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.paths = {}
        for item in items:
            self.paths[item.id] = work / f"{item.id}.cfg"
            self.paths[item.id].write_text(item.text, encoding="utf-8")

    def files(self, item) -> list[str]:
        sweep = item.spec.get("sweep")
        n_runs = len(sweep["values"]) if sweep else 1
        if item.kind == "convert":
            return [f"{item.id}.csv"]
        if item.kind == "spectrum":
            return [f"{item.id}.csv"] if n_runs == 1 else [f"{item.id}_{i + 1:03d}.csv" for i in range(n_runs)]
        tags = [""] if n_runs == 1 else [f"_{i + 1:03d}" for i in range(n_runs)]
        return [f"{item.id}{t}_{side}.csv" for t in tags for side in ("in", "out")] + [f"{item.id}_summary.csv"]

    def prepare(self, item) -> None:
        for name in self.files(item):
            (self.out / name).unlink(missing_ok=True)

    def run(self, item):
        return workloads.run_cli(self.om, self.paths[item.id], self.out)

    def collect(self, item, raw):
        code, stdout = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        files = {name: (self.out / name).read_text(encoding="utf-8") for name in self.files(item)}
        digest = hashlib.sha256(stdout.encode())
        for name in sorted(files):
            digest.update(name.encode() + b"\0" + files[name].encode())
        return {"files": files, "stdout": stdout}, digest.hexdigest()

    def check(self, item, output) -> list[str]:
        return oracles.CHECKS[item.kind](item.spec, output["files"], output["stdout"])


class StudyRunner:
    """Items are library trajectory studies."""

    def __init__(self, om) -> None:
        self.om = om

    def prepare(self, item) -> None:
        pass

    def run(self, item):
        return workloads.run_trajectory(self.om, item)

    def collect(self, item, result):
        traj = result["traj"]
        parts = [traj.times, np.array([[s.mean, *s.normal, *s.anomalous] for s in traj.states])]
        systems = [np.concatenate([es.lambdas, es.vectors.ravel(), es.inverse.ravel()]) for es in result["systems"]]
        darks = [[d.lambda1, d.mechanical_weight, *d.vector] for d in result["darks"]]
        parts += [np.array(systems), np.array(darks), result["dark_amplitude"]]
        parts += [np.array([result["adiabaticity"], result["fidelity"], result["fock_fidelity"]])]
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts))
        return result, digest.hexdigest()

    def check(self, item, output) -> list[str]:
        return oracles.check_trajectory(item.spec, output)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, item, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{item.id}: {message}")


def run_pass(runner, items, tally: Tally, tracer=None) -> list[float]:
    """Run every item once; returns the time of each call into the program.

    Only that call is timed; output collection, checks and digests run
    between items. An item's first run is checked against the oracles and
    every later run must reproduce its outputs byte for byte.
    """
    times = []
    for item in items:
        runner.prepare(item)
        if tracer is not None:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            raw = runner.run(item)
            error = None
        except Exception as exc:  # a failed item is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        tally.attempted += 1
        if error is None:
            try:
                output, digest = runner.collect(item, raw)
            except (RuntimeError, OSError) as exc:
                error = str(exc)
        if error is not None:
            tally.fail(item, error)
        elif item.id not in tally.digests:
            tally.digests[item.id] = digest
            try:
                problems = runner.check(item, output)
            except Exception as exc:  # malformed output can break a check's parsing
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                tally.fail(item, "; ".join(problems[:3]))
        elif tally.digests[item.id] != digest:
            tally.fail(item, "output differs from the first run of the same input")
    return times


def setup_seconds(items, work: Path) -> float:
    """Median of fresh-interpreter set-ups: package import plus config parsing."""
    spec_file = work / "items.json"
    entries = [{"id": i.id, "kind": i.kind, "points": i.points, "spec": i.spec, "text": i.text} for i in items]
    spec_file.write_text(json.dumps(entries), encoding="utf-8")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_file)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, items) -> dict:
    src = ROOT / "src" / "omtransfer"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "jobs": 1,
        "items_per_pass": len(items),
        "points_per_pass": sum(i.points for i in items),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py"))),
    }


def run(om, args, work: Path):
    items = workloads.generate(args.workload, args.seed)
    meta = metadata(args, items)
    setup_s = None if args.trace else setup_seconds(items, work)
    workloads.setup(om, items)
    runner = StudyRunner(om) if items[0].text is None else CliRunner(om, items, work)
    tally = Tally()
    tracer = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the program's regime warnings would flood stderr
        times = run_pass(runner, items, tally)
        if args.trace:
            # after the first (checked) pass, alternate traced and untraced
            # passes so that drift does not bias the overhead ratio
            tracer = tracing.Tracer()
            untraced, traced = [], []
            while sum(traced) < args.seconds / 2:
                tracing.instrument(tracer, om)
                try:
                    traced += run_pass(runner, items, tally, tracer)
                finally:
                    tracer.restore()
                untraced += run_pass(runner, items, tally)
            passes = len(traced) // len(items)
        else:
            while sum(times) < args.seconds:
                times += run_pass(runner, items, tally)
            passes = len(times) // len(items)
    meta.update(
        passes=passes,
        pass_seconds=[sum(times[k : k + len(items)]) for k in range(0, len(times), len(items))],
        item_samples=len(times),
        failed_ratio=tally.failed / tally.attempted,
        errors=tally.errors,
    )
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracing.per_layer(tracer, passes).items()}
        metrics["trace.overhead_ratio"] = {"value": sum(traced) / sum(untraced), "unit": "ratio"}
        return tally, metrics, meta, tracer
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "points_per_s": {"value": meta["points_per_pass"] / statistics.median(meta["pass_seconds"]), "unit": "1/s"},
        "run_s_p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return tally, metrics, meta, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        om = package.load(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import omtransfer from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally, metrics, meta, tracer = run(om, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
