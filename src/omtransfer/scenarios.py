"""Scenario execution: sweeps, CSV artifacts, and summary records.

Each run produces deterministic CSV files (see ``csvio``) plus one summary
record per sweep point.  A conversion sweep integrates all its points, and
their quiet-bath twins when ``delta_f`` is set, as one batched moment
integration; spectrum and pulse runs take their points in one loop, each
point computed and formatted in turn.  Files are written only after the
last point, so a failed run writes none.  Everything runs in one thread
and in sweep order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adiabatic, gaussian, transmission
from .config import ConfigError, ScenarioConfig, apply_sweep_point
from .csvio import build_csv, format_value, write_atomic

__all__ = ["RunArtifacts", "SummaryRecord", "run_scenario", "emit_summary"]


@dataclass(frozen=True)
class SummaryRecord:
    label: str
    scalars: tuple[tuple[str, float], ...]

    def line(self) -> str:
        parts = [self.label]
        parts += [f"{k}={format_value(v)}" for k, v in self.scalars]
        return " ".join(parts)


@dataclass(frozen=True)
class RunArtifacts:
    files: tuple[Path, ...]
    summaries: tuple[SummaryRecord, ...]


class ScenarioError(RuntimeError):
    """A run failed; the message carries the sweep point context."""


def _check_finite(scalars: list[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    for key, value in scalars:
        if not math.isfinite(value):
            raise ScenarioError(f"summary scalar {key} is not finite: {value}")
    return tuple(scalars)


def _point_label(config: ScenarioConfig, idx: int) -> str:
    if config.sweep is None:
        return config.scenario
    names = config.sweep.parameters
    values = config.sweep.points[idx]
    inner = ",".join(f"{n}={format_value(v)}" for n, v in zip(names, values))
    return f"{config.scenario}[{inner}]"


def _base_name(config: ScenarioConfig) -> str:
    base = config.output_path or config.scenario
    if base.endswith(".csv"):
        base = base[:-4]
    return base


def _run_convert(config: ScenarioConfig, out_dir: Path) -> RunArtifacts:
    schedule = config.schedule
    duration = schedule.duration
    cfgs = [apply_sweep_point(config, idx) for idx in range(config.n_runs)]
    initials = [gaussian.make_squeezed_coherent(c.alpha, c.r, c.phi) for c in cfgs]
    states0 = [gaussian.embed_initial(s, c.mech_occupation) for s, c in zip(initials, cfgs)]
    params = [c.params for c in cfgs]
    if config.delta_f:
        # quiet-bath twins isolate the mechanical-noise effect
        states0 += states0
        params += [dataclasses.replace(p, gamma_m=0.0, n_th=0.0) for p in params]
    finals = [
        gaussian.reduce_to_mode(st, 3)
        for st in gaussian.integrate_batch(states0, params, schedule, duration)
    ]

    sweep_names = list(config.sweep.parameters) if config.sweep else []
    header = sweep_names + ["F_numeric", "F1_analytic", "F_analytic", "F2_analytic", "f0T", "fs"]
    if config.delta_f:
        header += ["F_reference", "delta_F", "fs_bound"]
    rows = []
    summaries = []
    for idx, cfg in enumerate(cfgs):
        f_num = gaussian.gaussian_fidelity(initials[idx], finals[idx])
        report = None
        try:
            report = adiabatic.analytic_fidelity(
                cfg.alpha, cfg.r, cfg.phi, cfg.params, schedule, duration
            )
        except adiabatic.AdiabaticError:
            pass  # outside the expansion regime; numeric fidelity stands alone
        row: list = [v for v in (config.sweep.points[idx] if config.sweep else [])]
        scalars = [("F", f_num)]
        if report is not None:
            row += [f_num, report.F1, report.F, report.F2, report.f0T, report.fs]
            scalars += [("F1", report.F1), ("F2", report.F2), ("F_analytic", report.F),
                        ("f0T", report.f0T), ("fs", report.fs)]
        else:
            row += [f_num, "", "", "", "", ""]
        if config.delta_f:
            f_ref = gaussian.gaussian_fidelity(initials[idx], finals[len(cfgs) + idx])
            fsb = adiabatic.fs_bound(cfg.params, schedule, duration)
            row += [f_ref, abs(f_num - f_ref), fsb]
            scalars += [("F_reference", f_ref), ("delta_F", abs(f_num - f_ref)),
                        ("fs_bound", fsb)]
        rows.append(row)
        summaries.append(SummaryRecord(_point_label(config, idx), _check_finite(scalars)))

    path = write_atomic(out_dir / f"{_base_name(config)}.csv", build_csv(header, rows))
    return RunArtifacts(files=(path,), summaries=tuple(summaries))


def _run_spectrum(config: ScenarioConfig, out_dir: Path) -> RunArtifacts:
    omegas = np.linspace(config.omega_min, config.omega_max, config.n_omega)
    base = _base_name(config)
    texts = []
    summaries = []
    for idx in range(config.n_runs):
        cfg = apply_sweep_point(config, idx)
        g1, g2 = cfg.schedule.g1, cfg.schedule.g2
        spec = transmission.transmission_spectrum(cfg.params, g1, g2, omegas)
        res = transmission.t31_resonant(cfg.params, g1, g2)
        hw_an, hw_num = transmission.half_width(cfg.params, g1, g2)
        name = f"{base}.csv" if config.n_runs == 1 else f"{base}_{idx + 1:03d}.csv"
        texts.append((name, transmission.spectrum_to_csv(spec)))
        scalars = [("t31_0", res.value), ("optimal", 1.0 if res.optimal else 0.0),
                   ("half_width_analytic", hw_an), ("half_width_numeric", hw_num)]
        summaries.append(SummaryRecord(_point_label(config, idx), _check_finite(scalars)))
    return _write(out_dir, texts, summaries)


def _run_pulse(config: ScenarioConfig, out_dir: Path) -> RunArtifacts:
    time_domain = config.scenario == "engineer"
    base = _base_name(config)
    texts = []
    summaries = []
    summary_rows = []
    sweep_names = list(config.sweep.parameters) if config.sweep else []
    summary_header = sweep_names + ["pulse_fidelity", "energy_ratio"]
    if not time_domain:
        summary_header += ["t31_0", "half_width_analytic", "half_width_numeric"]
    for idx in range(config.n_runs):
        cfg = apply_sweep_point(config, idx)
        sched = cfg.schedule
        p_in = transmission.gaussian_pulse(cfg.sigma_omega, cfg.pulse_amplitude, cfg.pulse_points)
        if time_domain:
            p_out = transmission.transmit_pulse_time(p_in, cfg.params, sched)
        else:
            p_out = transmission.transmit_pulse_freq(p_in, cfg.params, sched.g1, sched.g2)
        fp = transmission.pulse_fidelity(p_in, p_out)
        energy = transmission.pulse_energy(p_out) / transmission.pulse_energy(p_in)
        tag = "" if config.n_runs == 1 else f"_{idx + 1:03d}"
        texts.append((f"{base}{tag}_in.csv", transmission.pulse_to_csv(p_in)))
        texts.append((f"{base}{tag}_out.csv", transmission.pulse_to_csv(p_out)))
        row: list = [v for v in (config.sweep.points[idx] if config.sweep else [])]
        row += [fp, energy]
        scalars = [("Fp", fp), ("energy_ratio", energy)]
        if not time_domain:
            res = transmission.t31_resonant(cfg.params, sched.g1, sched.g2)
            hw_an, hw_num = transmission.half_width(cfg.params, sched.g1, sched.g2)
            row += [res.value, hw_an, hw_num]
            scalars += [("t31_0", res.value), ("half_width_analytic", hw_an), ("half_width_numeric", hw_num)]
        summary_rows.append(row)
        summaries.append(SummaryRecord(_point_label(config, idx), _check_finite(scalars)))
    texts.append((f"{base}_summary.csv", build_csv(summary_header, summary_rows)))
    return _write(out_dir, texts, summaries)


def _write(out_dir: Path, texts: list[tuple[str, str]], summaries: list[SummaryRecord]) -> RunArtifacts:
    """Write every (name, text) once all points have run, so a failed run writes no file."""
    files = tuple(write_atomic(out_dir / name, text) for name, text in texts)
    return RunArtifacts(files=files, summaries=tuple(summaries))


def run_scenario(config: ScenarioConfig, out_dir: Path | str = ".") -> RunArtifacts:
    """Execute a validated configuration and write its artifacts under out_dir."""
    out = Path(out_dir)
    try:
        if config.scenario == "convert":
            return _run_convert(config, out)
        if config.scenario == "spectrum":
            return _run_spectrum(config, out)
        if config.scenario in ("transmit", "engineer"):
            return _run_pulse(config, out)
    except (ScenarioError, ConfigError):
        raise
    except Exception as exc:
        raise ScenarioError(f"{config.scenario} run failed: {exc}") from exc
    raise ConfigError(f"unknown scenario {config.scenario!r}")


def emit_summary(artifacts: RunArtifacts) -> int:
    """Print one line per run; the exit code contract lives in the CLI."""
    for record in artifacts.summaries:
        print(record.line())
    return 0
