"""In-memory spans and counters around omtransfer's public functions.

The tracer replaces a function at the name its callers look it up by (for
example `omtransfer.cli.parse_config`, which the CLI imported by name) with
a wrapper that records a span: name, start, end, parent span and item id.
Self time is a span's duration minus that of its direct children. Nothing
in the package source changes, and `restore` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.counts: Counter = Counter()
        self.item: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None, errors=()) -> None:
        """Record a span for every call of owner.attr.

        after(counts, args, kwargs, result) adds counters from a call;
        an exception of a type in `errors` is counted as `<name>.errors`.
        """
        fn = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr without a span (for per-step calls)."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def instrument(tracer: Tracer, om) -> None:
    """Wrap every layer boundary the workloads cross."""
    gaussian, transmission, adiabatic, spectral, model = (
        om.gaussian, om.transmission, om.adiabatic, om.spectral, om.model,
    )

    def integrated(counts, args, kwargs, traj):
        counts["gaussian.sim_time"] += float(args[3] if len(args) > 3 else kwargs["t_final"])
        counts["gaussian.states_validated"] += len(traj.states)

    def spectrum_points(counts, args, kwargs, spec):
        counts["transmission.omega_points"] += spec.omegas.size

    def pulse_samples(counts, args, kwargs, pulse):
        counts["transmission.pulse_samples"] += pulse.times.size

    def csv_rows(counts, args, kwargs, text):
        counts["csvio.rows"] += text.count("\n") - 1

    def written(counts, args, kwargs, path):
        counts["csvio.bytes_written"] += len(args[1].encode())

    tracer.wrap(om.cli, "parse_config", "config.parse")
    tracer.wrap(om.cli, "run_scenario", "scenarios.run")
    tracer.wrap(gaussian, "integrate", "gaussian.integrate", after=integrated)
    tracer.wrap(gaussian.ThreeModeGaussianState, "__post_init__", "gaussian.physicality")
    tracer.wrap(gaussian, "gaussian_fidelity", "gaussian.fidelity")
    tracer.wrap(gaussian, "fock_oracle_fidelity", "gaussian.fock_oracle")
    tracer.wrap(adiabatic, "analytic_fidelity", "adiabatic.analytic", errors=adiabatic.AdiabaticError)
    tracer.wrap(adiabatic, "fs_bound", "adiabatic.fs_bound")
    tracer.wrap(spectral, "eigensystem", "spectral.eigensystem")
    tracer.wrap(spectral, "eigensystem_sweep", "spectral.sweep")
    tracer.wrap(spectral, "dark_mode_exact", "spectral.dark_mode")
    tracer.wrap(model, "adiabaticity", "model.adiabaticity")
    tracer.wrap(transmission, "transmission_spectrum", "transmission.spectrum", after=spectrum_points)
    tracer.wrap(transmission, "half_width", "transmission.half_width")
    tracer.wrap(transmission, "transmit_pulse_freq", "transmission.pulse_freq", after=pulse_samples)
    tracer.wrap(transmission, "transmit_pulse_time", "transmission.pulse_time", after=pulse_samples)
    tracer.wrap(transmission, "pulse_fidelity", "transmission.pulse_fidelity")
    tracer.wrap(transmission, "pulse_to_csv", "transmission.to_csv")
    tracer.wrap(transmission, "spectrum_to_csv", "transmission.to_csv")
    tracer.wrap(transmission, "build_csv", "csvio.build_csv", after=csv_rows)
    tracer.wrap(om.scenarios, "build_csv", "csvio.build_csv", after=csv_rows)
    tracer.wrap(om.scenarios, "write_atomic", "csvio.write", after=written)
    for cls in (model.ConstantCoupling, model.TrigSchedule, model.TanhRampSchedule, model.PiecewiseLinearSchedule):
        tracer.count(cls, "values", "model.values_calls")


# (metric, unit, source): times are the self time of the named span, other
# values the named counter, both per pass over the workload's item list; the
# ratio divides two counters.
PER_LAYER = (
    ("config.parse_s", "s", "config.parse"),
    ("model.values_calls", "count", "model.values_calls"),
    ("model.adiabaticity_s", "s", "model.adiabaticity"),
    ("gaussian.integrate_s", "s", "gaussian.integrate"),
    ("gaussian.integrate_calls", "count", "gaussian.integrate.calls"),
    ("gaussian.sim_time", "1/g_ref", "gaussian.sim_time"),
    ("gaussian.physicality_s", "s", "gaussian.physicality"),
    ("gaussian.states_validated", "count", "gaussian.states_validated"),
    ("gaussian.fidelity_s", "s", "gaussian.fidelity"),
    ("gaussian.fock_oracle_s", "s", "gaussian.fock_oracle"),
    ("adiabatic.analytic_s", "s", "adiabatic.analytic"),
    ("adiabatic.fs_bound_s", "s", "adiabatic.fs_bound"),
    ("adiabatic.out_of_regime_ratio", "ratio", ("adiabatic.analytic.errors", "adiabatic.analytic.calls")),
    ("spectral.eigensystem_s", "s", "spectral.eigensystem"),
    ("spectral.eigensystem_calls", "count", "spectral.eigensystem.calls"),
    ("spectral.sweep_s", "s", "spectral.sweep"),
    ("spectral.dark_mode_s", "s", "spectral.dark_mode"),
    ("transmission.spectrum_s", "s", "transmission.spectrum"),
    ("transmission.omega_points", "count", "transmission.omega_points"),
    ("transmission.half_width_s", "s", "transmission.half_width"),
    ("transmission.pulse_freq_s", "s", "transmission.pulse_freq"),
    ("transmission.pulse_time_s", "s", "transmission.pulse_time"),
    ("transmission.pulse_samples", "count", "transmission.pulse_samples"),
    ("transmission.pulse_fidelity_s", "s", "transmission.pulse_fidelity"),
    ("transmission.to_csv_s", "s", "transmission.to_csv"),
    ("csvio.build_csv_s", "s", "csvio.build_csv"),
    ("csvio.rows", "count", "csvio.rows"),
    ("csvio.write_s", "s", "csvio.write"),
    ("csvio.bytes_written", "bytes", "csvio.bytes_written"),
    ("scenarios.self_s", "s", "scenarios.run"),
)


def per_layer(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """(value, unit) of every PER_LAYER metric."""
    selfs, counts = tracer.self_times(), tracer.counts
    out = {}
    for name, unit, source in PER_LAYER:
        if unit == "ratio":
            num, den = source
            value = counts[num] / counts[den] if counts[den] else 0.0
        else:
            value = (selfs.get(source, 0.0) if unit == "s" else counts[source]) / passes
        out[name] = (value, unit)
    return out
