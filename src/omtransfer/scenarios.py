"""Scenario execution: one point loop and one writer.

``run_scenario`` runs every scenario kind through one loop over its sweep
points.  The kind's function (``_convert``, ``_spectrum`` or ``_pulse``)
gives each point's own files, table row and summary scalars; the loop adds
the sweep values and builds the summary records.  After the last point it
formats the table CSV, if the kind has one, and writes every file, so a
failed run writes none.  A conversion sweep integrates all its points, and
their quiet-bath twins when ``delta_f`` is set, as one batched moment
integration.  Everything runs in one thread in sweep order, so repeated
runs are byte-identical.
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


def _convert(config: ScenarioConfig, cfgs: list[ScenarioConfig]):
    schedule, duration = config.schedule, config.schedule.duration
    initials = [gaussian.make_squeezed_coherent(c.alpha, c.r, c.phi) for c in cfgs]
    states0 = [gaussian.embed_initial(s, c.mech_occupation) for s, c in zip(initials, cfgs)]
    params = [c.params for c in cfgs]
    if config.delta_f:
        # quiet-bath twins isolate the mechanical-noise effect
        states0 += states0
        params += [dataclasses.replace(p, gamma_m=0.0, n_th=0.0) for p in params]
    batch = gaussian.integrate_batch(states0, params, schedule, duration)
    finals = [gaussian.reduce_to_mode(st, 3) for st in batch]
    header = ["F_numeric", "F1_analytic", "F_analytic", "F2_analytic", "f0T", "fs"]
    if config.delta_f:
        header += ["F_reference", "delta_F", "fs_bound"]

    def point(idx: int, cfg: ScenarioConfig):
        f_num = gaussian.gaussian_fidelity(initials[idx], finals[idx])
        report = None
        try:
            report = adiabatic.analytic_fidelity(cfg.alpha, cfg.r, cfg.phi, cfg.params, schedule, duration)
        except adiabatic.AdiabaticError:
            pass  # outside the expansion regime; numeric fidelity stands alone
        row, scalars = [f_num, "", "", "", "", ""], [("F", f_num)]
        if report is not None:
            row[1:] = [report.F1, report.F, report.F2, report.f0T, report.fs]
            scalars += [("F1", report.F1), ("F2", report.F2), ("F_analytic", report.F),
                        ("f0T", report.f0T), ("fs", report.fs)]
        if config.delta_f:
            f_ref = gaussian.gaussian_fidelity(initials[idx], finals[len(cfgs) + idx])
            row += [f_ref, abs(f_num - f_ref), ""]
            scalars += [("F_reference", f_ref), ("delta_F", abs(f_num - f_ref))]
            try:
                # report.fs is this same fs_bound call
                fsb = report.fs if report is not None else adiabatic.fs_bound(cfg.params, schedule, duration)
            except adiabatic.AdiabaticError:
                pass  # g0 vanishes inside the schedule; the bound is undefined
            else:
                row[-1] = fsb
                scalars.append(("fs_bound", fsb))
        return (), row, scalars

    return header, "", point


def _resonance(cfg: ScenarioConfig):
    """T31(0) report and the half-width scalars at the point's couplings, none where undefined."""
    g1, g2 = cfg.schedule.g1, cfg.schedule.g2
    try:
        widths = transmission.half_width(cfg.params, g1, g2)
    except transmission.TransmissionError:
        widths = ()  # a lossless cavity or no crossing in (0, g0/2]; T(w) stands without it
    return transmission.t31_resonant(cfg.params, g1, g2), [*zip(("half_width_analytic", "half_width_numeric"), widths)]


def _spectrum(config: ScenarioConfig, cfgs: list[ScenarioConfig]):
    omegas = np.linspace(config.omega_min, config.omega_max, config.n_omega)

    def point(idx: int, cfg: ScenarioConfig):
        spec = transmission.transmission_spectrum(cfg.params, cfg.schedule.g1, cfg.schedule.g2, omegas)
        res, widths = _resonance(cfg)
        scalars = [("t31_0", res.value), ("optimal", 1.0 if res.optimal else 0.0), *widths]
        return (("", transmission.spectrum_to_csv(spec)),), [], scalars

    return None, "", point


def _pulse(config: ScenarioConfig, cfgs: list[ScenarioConfig]):
    time_domain = config.scenario == "engineer"
    header = ["pulse_fidelity", "energy_ratio"]
    if not time_domain:
        header += ["t31_0", "half_width_analytic", "half_width_numeric"]

    def point(idx: int, cfg: ScenarioConfig):
        sched = cfg.schedule
        p_in = transmission.gaussian_pulse(cfg.sigma_omega, cfg.pulse_amplitude, cfg.pulse_points)
        if time_domain:
            p_out = transmission.transmit_pulse_time(p_in, cfg.params, sched)
        else:
            p_out = transmission.transmit_pulse_freq(p_in, cfg.params, sched.g1, sched.g2)
        files = (("_in", transmission.pulse_to_csv(p_in)), ("_out", transmission.pulse_to_csv(p_out)))
        scalars = [("energy_ratio", transmission.pulse_energy(p_out) / transmission.pulse_energy(p_in))]
        if p_out.amplitudes.any():  # a zero output (kappa1 = 0) has no shape to compare
            scalars.insert(0, ("Fp", transmission.pulse_fidelity(p_in, p_out)))
        if not time_domain:
            res, widths = _resonance(cfg)
            scalars += [("t31_0", res.value), *widths]
        # an undefined pulse fidelity or half-width leaves its cells blank
        named = {"pulse_fidelity" if key == "Fp" else key: value for key, value in scalars}
        return files, [named.get(name, "") for name in header], scalars

    return header, "_summary", point


_KINDS = {"convert": _convert, "spectrum": _spectrum, "transmit": _pulse, "engineer": _pulse}


def run_scenario(config: ScenarioConfig, out_dir: Path | str = ".") -> RunArtifacts:
    """Execute a validated configuration and write its artifacts under out_dir.

    A kind's function returns (table header or None, table name suffix,
    point); point(idx, cfg) returns ((suffix, text) files, row, scalars).
    Point files are <base><tag><suffix>.csv, tagged _001, _002, ... when
    there are several points, and the table <base><suffix>.csv comes last.
    """
    kind = _KINDS.get(config.scenario)
    if kind is None:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    base = (config.output_path or config.scenario).removesuffix(".csv")
    sweep = config.sweep
    try:
        cfgs = [apply_sweep_point(config, idx) for idx in range(config.n_runs)]
        header, table, point = kind(config, cfgs)
        texts, rows, summaries = [], [], []
        for idx, cfg in enumerate(cfgs):
            files, row, scalars = point(idx, cfg)
            tag = "" if config.n_runs == 1 else f"_{idx + 1:03d}"
            texts += [(f"{base}{tag}{suffix}.csv", text) for suffix, text in files]
            rows.append([*(sweep.points[idx] if sweep else ()), *row])
            summaries.append(SummaryRecord(_point_label(config, idx), _check_finite(scalars)))
        if header is not None:
            names = list(sweep.parameters) if sweep else []
            texts.append((f"{base}{table}.csv", build_csv(names + header, rows)))
        files = tuple(write_atomic(Path(out_dir) / name, text) for name, text in texts)
    except (ScenarioError, ConfigError):
        raise
    except Exception as exc:
        raise ScenarioError(f"{config.scenario} run failed: {exc}") from exc
    return RunArtifacts(files=files, summaries=tuple(summaries))


def emit_summary(artifacts: RunArtifacts) -> int:
    """Print one line per run; the exit code contract lives in the CLI."""
    for record in artifacts.summaries:
        print(record.line())
    return 0
