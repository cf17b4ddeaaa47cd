"""Line-based scenario configuration: parsing, validation, serialization.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
full-line comment.  Sections are scenario, params, schedule, initial,
pulse, sweep, and output.  Unknown sections or keys are rejected by name,
malformed numbers are reported with their line number, and a parsed
config serializes back to an equivalent file (round-trip safe).

The model's dataclasses are the schema.  [params] keys are SystemParams
fields (kappa1 and kappa2 default to 0).  Each [schedule] type's keys are
the init fields of its class in _SCHEDULES, those without a default
required; piecewise breakpoints are one ``points`` key instead.  _FIELDS
maps the other keys to ScenarioConfig fields, whose defaults apply, except
that mech_occupation defaults to n_th and the output path to the scenario.
serialize_config writes every field that is not None.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import MISSING, dataclass

from .gaussian import GaussianError, _squeezed_occupation
from .model import (
    ConstantCoupling,
    CouplingSchedule,
    ModelError,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
)

__all__ = ["ConfigError", "Sweep", "ScenarioConfig", "parse_config", "serialize_config"]

SCENARIOS = ("convert", "spectrum", "transmit", "engineer")

SWEEPABLE = {
    "kappa1", "kappa2", "gamma_m", "n_th",
    "alpha_re", "alpha_im", "r", "phi", "mech_occupation",
    "sigma_omega",
}

_SCHEDULES = {
    "trig": TrigSchedule,
    "constant": ConstantCoupling,
    "piecewise": PiecewiseLinearSchedule,
    "tanh": TanhRampSchedule,
}

# (section, key) -> (ScenarioConfig field, value type), in the order they are
# read after [params] and [schedule]; alpha_re and alpha_im are alpha's parts
_FIELDS = {
    ("scenario", "g_ref"): ("g_ref", float),
    ("initial", "alpha_re"): ("alpha_re", float),
    ("initial", "alpha_im"): ("alpha_im", float),
    ("initial", "r"): ("r", float),
    ("initial", "phi"): ("phi", float),
    ("initial", "mech_occupation"): ("mech_occupation", float),
    ("pulse", "sigma_omega"): ("sigma_omega", float),
    ("pulse", "amplitude"): ("pulse_amplitude", float),
    ("pulse", "n_points"): ("pulse_points", int),
    ("scenario", "omega_min"): ("omega_min", float),
    ("scenario", "omega_max"): ("omega_max", float),
    ("scenario", "n_omega"): ("n_omega", int),
    ("scenario", "delta_f"): ("delta_f", bool),
    ("output", "path"): ("output_path", str),
}


def _init_fields(cls: type) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.init]


# the keys of each section besides those in _FIELDS
_KEYS = {
    "scenario": {"type"},
    "params": {f.name for f in dataclasses.fields(SystemParams)},
    "schedule": {"type", "points"}.union(
        *({f.name for f in _init_fields(cls)} for cls in _SCHEDULES.values()
          if cls is not PiecewiseLinearSchedule)
    ),
    "initial": set(),
    "pulse": set(),
    "sweep": {"parameter", "values"},
    "output": set(),
}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Sweep:
    parameters: tuple[str, ...]
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: SystemParams
    schedule: CouplingSchedule
    g_ref: float = 1.0
    alpha: complex = 1.0 + 0.0j
    r: float = 0.0
    phi: float = 0.0
    mech_occupation: float = 0.0
    sigma_omega: float | None = None
    pulse_amplitude: float = 1.0
    pulse_points: int = 4096
    omega_min: float = -0.3
    omega_max: float = 0.3
    n_omega: int = 601
    delta_f: bool = False
    sweep: Sweep | None = None
    output_path: str = ""

    @property
    def n_runs(self) -> int:
        return len(self.sweep.points) if self.sweep is not None else 1


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# value type -> (its name in error messages, parser)
_TYPES = {
    str: ("text", str),
    float: ("number", float),
    int: ("integer", int),
    bool: ("boolean", lambda text: _BOOLEANS[text.lower()]),
}


class _RawConfig(dict):
    """(section, key) -> (value text, line number) of one config text."""

    def __init__(self, text: str) -> None:
        super().__init__()
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _KEYS:
                    raise ConfigError(f"unknown section [{section}] at line {lineno}")
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value' at line {lineno}: {raw!r}")
            if section is None:
                raise ConfigError(f"key outside any section at line {lineno}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _KEYS[section] and (section, key) not in _FIELDS:
                raise ConfigError(f"unknown key {key} in [{section}]")
            if (section, key) in self:
                raise ConfigError(f"duplicate key {key} in [{section}] at line {lineno}")
            self[(section, key)] = (value, lineno)

    def value(self, section: str, key: str, kind: type = str, default=None):
        """The entry parsed as kind (str, float, int or bool), or default if absent."""
        hit = self.get((section, key))
        if hit is None:
            return default
        text, lineno = hit
        name, parse = _TYPES[kind]
        try:
            return parse(text)
        except (ValueError, KeyError):
            shown = "" if kind is bool else f": {text!r}"
            raise ConfigError(
                f"malformed {name} for {key} in [{section}] at line {lineno}{shown}"
            ) from None


def _require(raw: _RawConfig, section: str, key: str) -> tuple[str, int]:
    hit = raw.get((section, key))
    if hit is None:
        raise ConfigError(f"missing required key {key} in [{section}]")
    return hit


def _colon_rows(hit: tuple[str, int], width: int, arity: str, number: str) -> tuple[tuple[float, ...], ...]:
    """Float rows of ``a:b:..., a:b:...``; the error templates may name {chunk}, {count}, {width}, {line}."""
    text, line = hit
    rows = []
    for chunk in (c.strip() for c in text.split(",")):
        parts = chunk.split(":")
        where = {"chunk": chunk, "count": len(parts), "width": width, "line": line}
        if len(parts) != width:
            raise ConfigError(arity.format(**where))
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(number.format(**where)) from None
    return tuple(rows)


def _rows_text(rows) -> str:
    return ", ".join(":".join(repr(v) for v in row) for row in rows)


def _parse_schedule(raw: _RawConfig) -> CouplingSchedule:
    kind, lineno = _require(raw, "schedule", "type")
    kind = kind.lower()
    cls = _SCHEDULES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown schedule type {kind!r} at line {lineno}")
    try:
        if cls is PiecewiseLinearSchedule:
            hit = raw.get(("schedule", "points"))
            if hit is None:
                raise ConfigError("piecewise schedule needs points = t:g1:g2, ...")
            rows = _colon_rows(
                hit, 3, "malformed breakpoint {chunk!r} at line {line}; expected t:g1:g2",
                "malformed number in breakpoint {chunk!r} at line {line}",
            )
            return cls(*zip(*rows))
        fields = _init_fields(cls)
        # a dataclass lists its required fields first; they are checked before the rest are read
        kw = {f.name: raw.value("schedule", f.name, float) for f in fields if f.default is MISSING}
        if None in kw.values():
            raise ConfigError(f"{kind} schedule needs {', '.join(kw)}")
        kw.update((f.name, raw.value("schedule", f.name, float, f.default)) for f in fields[len(kw):])
        return cls(**kw)
    except ModelError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def _parse_sweep(raw: _RawConfig) -> Sweep | None:
    par = raw.get(("sweep", "parameter"))
    vals = raw.get(("sweep", "values"))
    if par is None and vals is None:
        return None
    if par is None or vals is None:
        raise ConfigError("[sweep] needs both parameter and values")
    names = tuple(p.strip().lower() for p in par[0].split(","))
    for name in names:
        if name not in SWEEPABLE:
            raise ConfigError(
                f"sweep parameter {name!r} does not name a sweepable field "
                f"(choose from {sorted(SWEEPABLE)})"
            )
    points = _colon_rows(
        vals, len(names), "sweep point {chunk!r} has {count} values for {width} parameter(s)",
        "malformed number in sweep values at line {line}: {chunk!r}",
    )
    return Sweep(parameters=names, points=points)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate one scenario configuration."""
    raw = _RawConfig(text)
    scenario = _require(raw, "scenario", "type")[0].lower()
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario type {scenario!r}; expected one of {SCENARIOS}")
    if raw.value("scenario", "g_ref", float, ScenarioConfig.g_ref) <= 0:
        raise ConfigError("g_ref must be positive")

    try:
        params = SystemParams(**{
            f.name: raw.value("params", f.name, float, 0.0 if f.default is MISSING else f.default)
            for f in dataclasses.fields(SystemParams)
        })
    except ModelError as exc:
        raise ConfigError(f"invalid [params]: {exc}") from exc

    schedule = _parse_schedule(raw)
    kw = {name: raw.value(*where, kind) for where, (name, kind) in _FIELDS.items() if where in raw}
    alpha = complex(kw.pop("alpha_re", ScenarioConfig.alpha.real), kw.pop("alpha_im", ScenarioConfig.alpha.imag))
    kw.setdefault("mech_occupation", params.n_th)
    kw["output_path"] = kw.get("output_path") or scenario
    config = ScenarioConfig(
        scenario=scenario, params=params, schedule=schedule, alpha=alpha, sweep=_parse_sweep(raw), **kw
    )
    _validate(config)
    for idx in range(config.n_runs):
        apply_sweep_point(config, idx)  # every sweep point passes the same checks
    return config


def _validate(config: ScenarioConfig) -> None:
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    try:
        _squeezed_occupation(config.r)
    except GaussianError as exc:
        raise ConfigError(str(exc)) from None
    if config.mech_occupation < 0:
        raise ConfigError("mech_occupation must be non-negative")
    if config.scenario in ("convert", "engineer") and not math.isfinite(config.schedule.duration):
        raise ConfigError(f"{config.scenario} scenario needs a schedule with finite duration")
    if config.scenario in ("spectrum", "transmit") and not isinstance(config.schedule, ConstantCoupling):
        raise ConfigError(f"{config.scenario} scenario needs a constant schedule")
    if config.scenario in ("transmit", "engineer"):
        if config.sigma_omega is None or config.sigma_omega <= 0:
            raise ConfigError(f"{config.scenario} scenario needs [pulse] sigma_omega > 0")
        if config.pulse_amplitude == 0:
            raise ConfigError("[pulse] amplitude must be nonzero")
        n = config.pulse_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigError("[pulse] n_points must be a power of two >= 16")
    if config.scenario == "spectrum":
        if not (config.omega_min < config.omega_max) or config.n_omega < 2:
            raise ConfigError("spectrum grid needs omega_min < omega_max and n_omega >= 2")
    if config.delta_f and config.scenario != "convert":
        raise ConfigError("delta_f is only meaningful for the convert scenario")


def apply_sweep_point(config: ScenarioConfig, point_index: int) -> ScenarioConfig:
    """Materialize one sweep point as a standalone, validated configuration.

    mech_occupation keeps its configured value even when n_th is swept:
    the parse-time default couples them once, after which the initial
    mechanical state and the bath are independent knobs.  SystemParams is
    rebuilt, and so re-validated, only when the point sets one of its fields.
    A point that fails a check raises ConfigError naming its values.
    """
    if config.sweep is None:
        if point_index != 0:
            raise ConfigError("no sweep defined")
        return config
    values = config.sweep.points[point_index]
    point = dict(zip(config.sweep.parameters, values))
    params_kw = {name: point.pop(name) for name in _KEYS["params"] & point.keys()}
    alpha = complex(point.pop("alpha_re", config.alpha.real), point.pop("alpha_im", config.alpha.imag))
    try:
        if params_kw:
            point["params"] = dataclasses.replace(config.params, **params_kw)
        materialized = dataclasses.replace(config, alpha=alpha, sweep=None, **point)
        _validate(materialized)
    except (ModelError, ConfigError) as exc:
        raise ConfigError(f"invalid sweep point {values}: {exc}") from exc
    return materialized


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form, every field that is not None; parse_config(serialize_config(c)) == c."""
    s = config.schedule
    kind = next((name for name, cls in _SCHEDULES.items() if isinstance(s, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize schedule type {type(s).__name__}")
    if kind == "piecewise":
        schedule = {"points": _rows_text(zip(s.times, s.g1_values, s.g2_values))}
    else:
        schedule = {f.name: getattr(s, f.name) for f in _init_fields(_SCHEDULES[kind])}
    sweep = config.sweep
    sections = {
        "scenario": {"type": config.scenario},
        "params": {f.name: getattr(config.params, f.name) for f in dataclasses.fields(SystemParams)},
        "schedule": {"type": kind, **schedule},
        "initial": {},
        "pulse": {},
        "sweep": {} if sweep is None else {
            "parameter": ", ".join(sweep.parameters), "values": _rows_text(sweep.points)
        },
        "output": {},
    }
    values = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    values.update(alpha_re=config.alpha.real, alpha_im=config.alpha.imag)
    for (section, key), (name, _) in _FIELDS.items():
        sections[section][key] = values[name]
    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {_format(v)}\n" for key, v in entries.items() if v is not None)
        for section, entries in sections.items()
        if entries
    )
