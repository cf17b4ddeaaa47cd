"""Seeded workload generation and the timed calls into omtransfer.

A workload is a fixed list of items (one pass). Every item is generated
from the seed; the program sees only the generated config text (CLI
workloads) or the library inputs built from the generated case spec
(trajectory_study). Cost-setting parameters (sweep lengths, grid sizes,
step counts, the Fock oracle's size) are fixed or come from per-workload
menus that every seed uses in full, in a seeded order, so the work in one
pass is the same for every seed while the physics (rates, ramps, input
states) varies.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("convert_sweep", "pulse_spectrum", "trajectory_study")

# convert_sweep pass: the four Fig. 1 scenarios (fig1b, fig1b_squeezed, fig1c,
# fig1c_squeezed) as generated configs, each an 11-point sweep. Two run with
# delta_f (two integrations per point), two without; within each pair one
# input is coherent and one squeezed, one ramp trig and one tanh, so every
# seed's pass makes the same 66 integrations of 2000 RK4 steps.
CONVERT_POINTS = 11
CONVERT_FORMS = ((False, False), (False, True), (True, False), (True, True))  # (delta_f, squeezed)
CONVERT_RAMPS = ("trig", "tanh")

# pulse_spectrum pass: (scenario, grid size, sweep points); nine configs.
# The three spectra evaluate about 1200 frequencies each and sit between
# the cheaper engineer runs and the costlier transmit runs, so the
# per-config median lands among three equal-cost items for every seed.
PULSE_MENU = (
    ("spectrum", 401, 3),
    ("spectrum", 601, 2),
    ("spectrum", 1201, 1),
    ("transmit", 1024, 3),
    ("transmit", 2048, 2),
    ("transmit", 4096, 2),
    ("engineer", 512, 1),
    ("engineer", 1024, 1),
    ("engineer", 2048, 1),
)
ENGINEER_SHAPES = ("switch_on", "switch_off", "constant")
# the program's RK4 substep count for engineer runs grows with g0 and with the
# pulse window 16/sigma_omega, so both are fixed and only the angle varies
ENGINEER_G0 = 5.0
ENGINEER_SIGMA = 0.2

# trajectory_study pass: one case per schedule kind. T = 100 with couplings
# of scale 1 gives 10^4 RK4 steps; every 4th sample feeds the eigensystem
# sweep and every 40th the exact dark mode. The inputs that size the Fock
# oracle (|alpha|, r, n_th, mechanical occupation) are the same for every
# seed; its cutoff rule then gives 101 from the input state for every seed,
# so its matrices have one size.
TRAJECTORY_KINDS = ("trig", "tanh", "constant")
TRAJECTORY_INPUT = {"alpha_abs": 2.0, "r": 0.2, "n_th": 2.0, "mech_occupation": 0.1}
TRAJECTORY_T = 100.0
SWEEP_STRIDE = 4
DARK_STRIDE = 40
ALL_SAMPLES = 10**9  # n_samples above the step count keeps every step


@dataclass
class Item:
    """One unit of timed work: a CLI config or a library case."""

    id: str
    kind: str
    points: int
    spec: dict
    text: str | None = None
    prepared: dict = field(default_factory=dict)


def _r(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _r(rng.uniform(lo, hi))


def _sorted_values(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(_uniform(rng, lo, hi) for _ in range(n))


def _config_text(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value in entries.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _schedule_spec_convert(rng: random.Random, ramp: str) -> dict:
    duration = _uniform(rng, 1.2, 3.0)
    if ramp == "trig":
        return {"type": "trig", "amplitude": _uniform(rng, 4.0, 6.0), "duration": duration}
    return {
        "type": "tanh",
        "g_max": _uniform(rng, 4.0, 6.0),
        "center": _r(duration * rng.uniform(0.45, 0.55)),
        "width": _r(duration * rng.uniform(0.1, 0.2)),
        "duration": duration,
    }


def _convert_items(rng: random.Random) -> list[Item]:
    forms = list(CONVERT_FORMS)
    rng.shuffle(forms)
    ramps = {delta_f: rng.sample(CONVERT_RAMPS, 2) for delta_f in (False, True)}
    items = []
    for k, (delta_f, squeezed) in enumerate(forms):
        ramp = ramps[delta_f].pop()
        swept = rng.choice(("kappa1", "kappa2"))
        other = "kappa2" if swept == "kappa1" else "kappa1"
        params = {
            swept: 0.0,
            other: _uniform(rng, 0.0, 0.5),
            "gamma_m": _uniform(rng, 1e-4, 5e-4) if delta_f else _uniform(rng, 0.0, 3e-4),
            "n_th": _uniform(rng, 20.0, 100.0) if delta_f else _uniform(rng, 0.0, 10.0),
        }
        mag, arg = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        initial = {
            "alpha_re": _r(mag * math.cos(arg)),
            "alpha_im": _r(mag * math.sin(arg)),
            "r": _uniform(rng, 0.2, 0.6) if squeezed else 0.0,
            "phi": _uniform(rng, 0.0, math.pi),
            "mech_occupation": _uniform(rng, 0.0, 0.5),
        }
        values = _sorted_values(rng, CONVERT_POINTS, 0.0, 1.0)
        schedule = _schedule_spec_convert(rng, ramp)
        item_id = f"c{k:02d}"
        spec = {
            "scenario": "convert",
            "delta_f": delta_f,
            "params": params,
            "schedule": schedule,
            "initial": initial,
            "sweep": {"parameter": [swept], "values": [[v] for v in values]},
            "check_point": rng.randrange(CONVERT_POINTS),
        }
        scenario = {"type": "convert", "g_ref": 1.0}
        if delta_f:
            scenario["delta_f"] = True
        text = _config_text(
            {
                "scenario": scenario,
                "params": params,
                "schedule": schedule,
                "initial": initial,
                "sweep": {"parameter": swept, "values": values},
                "output": {"path": item_id},
            }
        )
        items.append(Item(item_id, "convert", CONVERT_POINTS, spec, text))
    return items


def _pulse_params(rng: random.Random) -> dict:
    return {
        "kappa1": _uniform(rng, 0.1, 0.5),
        "kappa2": _uniform(rng, 0.1, 0.5),
        "gamma_m": _uniform(rng, 1e-4, 2e-3),
    }


def _couplings(rng: random.Random) -> tuple[float, float]:
    return _uniform(rng, 2.0, 5.0), _uniform(rng, 2.0, 5.0)


def _pulse_items(rng: random.Random) -> list[Item]:
    menu = list(PULSE_MENU)
    rng.shuffle(menu)
    shapes = list(ENGINEER_SHAPES)
    rng.shuffle(shapes)
    items = []
    for k, (scenario, size, n_points) in enumerate(menu):
        item_id = f"p{k:02d}"
        params = _pulse_params(rng)
        g1, g2 = _couplings(rng)
        spec: dict = {"scenario": scenario, "params": params}
        sections: dict = {"scenario": {"type": scenario, "g_ref": 1.0}, "params": params}
        if scenario == "spectrum":
            width = _uniform(rng, 0.2, 0.5)
            sections["scenario"].update(omega_min=-width, omega_max=width, n_omega=size)
            schedule = {"type": "constant", "g1": g1, "g2": g2}
            pairs = [[_uniform(rng, 0.05, 0.5), _uniform(rng, 0.05, 0.5)] for _ in range(n_points)]
            sweep = {"parameter": ["kappa1", "kappa2"], "values": pairs}
            spec.update(omega_min=-width, omega_max=width, n_omega=size)
        else:
            if scenario == "transmit":
                schedule = {"type": "constant", "g1": g1, "g2": g2}
                sigmas = _sorted_values(rng, n_points, 0.02, 0.4)
            else:
                sigmas = [ENGINEER_SIGMA]
                angle = rng.uniform(0.2, 0.3) * math.pi
                g1, g2 = _r(ENGINEER_G0 * math.cos(angle)), _r(ENGINEER_G0 * math.sin(angle))
                schedule = _engineer_schedule(rng, shapes.pop(), 16.0 / sigmas[0], g1, g2)
            amplitude = _uniform(rng, 0.5, 2.0)
            sections["pulse"] = {"sigma_omega": sigmas[0], "amplitude": amplitude, "n_points": size}
            sweep = {"parameter": ["sigma_omega"], "values": [[s] for s in sigmas]} if scenario == "transmit" else None
            spec.update(amplitude=amplitude, n_points=size, sigma_omega=sigmas[0])
        sections["schedule"] = schedule
        if sweep:
            sections["sweep"] = {
                "parameter": ", ".join(sweep["parameter"]),
                "values": [":".join(str(v) for v in pt) for pt in sweep["values"]],
            }
        sections["output"] = {"path": item_id}
        spec.update(schedule=schedule, sweep=sweep)
        items.append(Item(item_id, scenario, n_points, spec, _config_text(sections)))
    return items


def _engineer_schedule(rng: random.Random, shape: str, span: float, g1: float, g2: float) -> dict:
    end = _r(span * 1.001 + 0.01)
    if shape == "constant":
        return {"type": "constant", "g1": g1, "g2": g2, "duration": end}
    t_switch = _r(span * rng.uniform(0.3, 0.6))
    ramp = _r(rng.uniform(0.005, 0.05))
    on, off = f"{g1}:{g2}", "0.0:0.0"
    first, second = (off, on) if shape == "switch_on" else (on, off)
    points = [f"0.0:{first}", f"{t_switch}:{first}", f"{_r(t_switch + ramp)}:{second}", f"{end}:{second}"]
    return {"type": "piecewise", "points": points}


def _trajectory_items(rng: random.Random) -> list[Item]:
    items = []
    for k, kind in enumerate(TRAJECTORY_KINDS):
        T = TRAJECTORY_T
        if kind == "trig":
            schedule = {"type": "trig", "amplitude": 1.0, "duration": T}
        elif kind == "tanh":
            schedule = {
                "type": "tanh",
                "g_max": 1.0,
                "center": _r(T * rng.uniform(0.4, 0.6)),
                "width": _r(T * rng.uniform(0.08, 0.15)),
                "duration": T,
            }
        else:
            ratio = _uniform(rng, 0.5, 1.0)
            g1, g2 = (1.0, ratio) if rng.random() < 0.5 else (ratio, 1.0)
            schedule = {"type": "constant", "g1": g1, "g2": -g2, "duration": T}
        arg = rng.uniform(0.0, 2.0 * math.pi)
        spec = {
            "params": {
                "kappa1": _uniform(rng, 0.002, 0.02),
                "kappa2": _uniform(rng, 0.002, 0.02),
                "gamma_m": _uniform(rng, 1e-4, 3e-4),
                "n_th": TRAJECTORY_INPUT["n_th"],
            },
            "schedule": schedule,
            "initial": {
                "alpha_re": _r(TRAJECTORY_INPUT["alpha_abs"] * math.cos(arg)),
                "alpha_im": _r(TRAJECTORY_INPUT["alpha_abs"] * math.sin(arg)),
                "r": TRAJECTORY_INPUT["r"],
                "phi": _uniform(rng, 0.0, math.pi),
                "mech_occupation": TRAJECTORY_INPUT["mech_occupation"],
            },
            "T": T,
        }
        items.append(Item(f"t{k:02d}", "trajectory", 1, spec))
    return items


def generate(workload: str, seed: int) -> list[Item]:
    """The item list of one pass of the named workload for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "convert_sweep":
        return _convert_items(rng)
    if workload == "pulse_spectrum":
        return _pulse_items(rng)
    if workload == "trajectory_study":
        return _trajectory_items(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_schedule(om, spec: dict):
    """Library schedule object for a generated schedule spec."""
    model = om.model
    kind = spec["type"]
    if kind == "trig":
        return model.TrigSchedule(amplitude=spec["amplitude"], duration=spec["duration"])
    if kind == "tanh":
        return model.TanhRampSchedule(
            g_max=spec["g_max"], center=spec["center"], width=spec["width"], duration=spec["duration"]
        )
    if kind == "constant":
        return model.ConstantCoupling(g1=spec["g1"], g2=spec["g2"], duration=spec["duration"])
    raise ValueError(f"no library schedule for {kind!r}")


def setup(om, items: list[Item]) -> None:
    """Parse every config (CLI items) or build every library input (cases)."""
    for item in items:
        if item.text is not None:
            item.prepared["config"] = om.config.parse_config(item.text)
            continue
        spec = item.spec
        p = spec["params"]
        ini = spec["initial"]
        initial = om.gaussian.make_squeezed_coherent(complex(ini["alpha_re"], ini["alpha_im"]), ini["r"], ini["phi"])
        item.prepared = {
            "params": om.model.SystemParams(p["kappa1"], p["kappa2"], p["gamma_m"], p["n_th"]),
            "schedule": build_schedule(om, spec["schedule"]),
            "initial": initial,
            "state0": om.gaussian.embed_initial(initial, ini["mech_occupation"]),
        }


def run_cli(om, config_path, out_dir) -> tuple[int, str]:
    """One `omtransfer run` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = om.cli.main(["run", str(config_path), "--out", str(out_dir), "--jobs", "1"])
    return code, buf.getvalue()


def run_trajectory(om, item: Item) -> dict:
    """One library study: full trajectory, dark-mode tracking, certified fidelity.

    Library functions are looked up on their modules at call time, so the
    tracer's wrappers see these calls.
    """
    gaussian, spectral, model = om.gaussian, om.spectral, om.model
    prep = item.prepared
    params, schedule = prep["params"], prep["schedule"]
    traj = gaussian.integrate(prep["state0"], params, schedule, item.spec["T"], n_samples=ALL_SAMPLES)
    sweep_times = traj.times[::SWEEP_STRIDE]
    systems = spectral.eigensystem_sweep(params, schedule, sweep_times)
    darks = [
        spectral.dark_mode_exact(model.dynamic_matrix_at(params, schedule, float(t)))
        for t in traj.times[::DARK_STRIDE]
    ]
    # the sweep keeps column order continuous, so the dark column found at
    # t = 0 is the dark column everywhere; project the mean onto it
    first = systems[0]
    dark_col = max(range(3), key=lambda i: abs(np.vdot(darks[0].vector, first.vectors[:, i])))
    means = np.array([traj.states[k].mean for k in range(0, len(traj.states), SWEEP_STRIDE)])
    inverses = np.array([es.inverse[dark_col] for es in systems])
    dark_amplitude = np.einsum("kj,kj->k", inverses, means)
    final = gaussian.reduce_to_mode(traj.final, 3)
    return {
        "traj": traj,
        "sweep_times": sweep_times,
        "dark_times": traj.times[::DARK_STRIDE],
        "systems": systems,
        "darks": darks,
        "dark_amplitude": dark_amplitude,
        "adiabaticity": model.adiabaticity(schedule),
        "final": final,
        "fidelity": gaussian.gaussian_fidelity(prep["initial"], final),
        "fock_fidelity": gaussian.fock_oracle_fidelity(prep["initial"], final),
    }
