"""The config contract: exact error texts, error order, and the round trip.

Every malformed config below is rejected with the exact ConfigError text
pinned next to it.  A derandomized property checks
parse_config(serialize_config(c)) == c on valid configs with every schedule
type, with and without [pulse] and [sweep], and with multi-parameter sweeps.
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from omtransfer.config import (
    SWEEPABLE,
    ConfigError,
    ScenarioConfig,
    Sweep,
    apply_sweep_point,
    parse_config,
    serialize_config,
)
from omtransfer.model import (
    ConstantCoupling,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
)

BASE = """[scenario]
type = convert

[params]
kappa1 = 0.1

[schedule]
type = trig
amplitude = 5.0
duration = 1.5
"""

SPECTRUM = """[scenario]
type = spectrum

[params]
kappa1 = 0.3
kappa2 = 0.2

[schedule]
type = constant
g1 = 4.0
g2 = 3.0
"""

TRANSMIT = SPECTRUM.replace("spectrum", "transmit") + "\n[pulse]\nsigma_omega = 0.2\n"

TRIG = "type = trig\namplitude = 5.0\nduration = 1.5\n"


def _edit(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def _sweep(parameter, values):
    return BASE + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"


# (case, config text, exact ConfigError text)
MALFORMED = [
    ("number", _edit(BASE, "kappa1 = 0.1", "kappa1 = zero"),
     "malformed number for kappa1 in [params] at line 5: 'zero'"),
    ("number_g_ref", _edit(BASE, "type = convert", "type = convert\ng_ref = fast"),
     "malformed number for g_ref in [scenario] at line 3: 'fast'"),
    ("integer", _edit(SPECTRUM, "type = spectrum", "type = spectrum\nn_omega = 6.5"),
     "malformed integer for n_omega in [scenario] at line 3: '6.5'"),
    ("integer_pulse", TRANSMIT + "n_points = 1e3\n",
     "malformed integer for n_points in [pulse] at line 15: '1e3'"),
    ("boolean", _edit(BASE, "type = convert", "type = convert\ndelta_f = maybe"),
     "malformed boolean for delta_f in [scenario] at line 3"),
    ("trig_without_duration", _edit(BASE, "duration = 1.5\n", ""),
     "trig schedule needs amplitude, duration"),
    ("trig_without_amplitude", _edit(BASE, "amplitude = 5.0\n", ""),
     "trig schedule needs amplitude, duration"),
    ("constant_without_g2", _edit(BASE, TRIG, "type = constant\ng1 = 1.0\n"),
     "constant schedule needs g1, g2"),
    # required couplings are checked before the optional duration is read
    ("constant_without_g2_bad_duration", _edit(BASE, TRIG, "type = constant\ng1 = 1.0\nduration = long\n"),
     "constant schedule needs g1, g2"),
    ("piecewise_without_points", _edit(BASE, TRIG, "type = piecewise\n"),
     "piecewise schedule needs points = t:g1:g2, ..."),
    ("tanh_without_width", _edit(BASE, TRIG, "type = tanh\ng_max = 5\ncenter = 1\nduration = 2\n"),
     "tanh schedule needs g_max, center, width, duration"),
    ("schedule_number", _edit(BASE, TRIG, "type = constant\ng1 = one\n"),
     "malformed number for g1 in [schedule] at line 9: 'one'"),
    ("unknown_schedule_type", _edit(BASE, "type = trig", "type = Cubic"),
     "unknown schedule type 'cubic' at line 8"),
    ("breakpoint_arity", _edit(BASE, TRIG, "type = piecewise\npoints = 0:1:2, 1:2\n"),
     "malformed breakpoint '1:2' at line 9; expected t:g1:g2"),
    ("breakpoint_number", _edit(BASE, TRIG, "type = piecewise\npoints = 0:1:2, 1:x:2\n"),
     "malformed number in breakpoint '1:x:2' at line 9"),
    ("invalid_schedule", _edit(BASE, "amplitude = 5.0", "amplitude = -5.0"),
     "invalid schedule: TrigSchedule requires positive amplitude and duration"),
    ("invalid_piecewise", _edit(BASE, TRIG, "type = piecewise\npoints = 1:1:2, 2:1:2\n"),
     "invalid schedule: first breakpoint must be at t = 0"),
    ("sweep_without_values", BASE + "\n[sweep]\nparameter = kappa1\n",
     "[sweep] needs both parameter and values"),
    ("sweep_without_parameter", BASE + "\n[sweep]\nvalues = 1, 2\n",
     "[sweep] needs both parameter and values"),
    ("sweep_unknown_parameter", _sweep("kappa1, omega_m", "1:2"),
     "sweep parameter 'omega_m' does not name a sweepable field (choose from ['alpha_im', "
     "'alpha_re', 'gamma_m', 'kappa1', 'kappa2', 'mech_occupation', 'n_th', 'phi', 'r', "
     "'sigma_omega'])"),
    ("sweep_point_arity", _sweep("kappa1, r", "0.1:0.2, 0.3"),
     "sweep point '0.3' has 1 values for 2 parameter(s)"),
    ("sweep_number", _sweep("kappa1", "0.1, x"),
     "malformed number in sweep values at line 14: 'x'"),
    ("sweep_empty_values", _sweep("kappa1", ""),
     "malformed number in sweep values at line 14: ''"),
    ("unknown_section", BASE + "\n[extra]\n", "unknown section [extra] at line 12"),
    ("no_equals", _edit(BASE, "kappa1 = 0.1", "kappa1 0.1"),
     "expected 'key = value' at line 5: 'kappa1 0.1'"),
    ("outside_section", "kappa1 = 0.1\n" + BASE, "key outside any section at line 1"),
    ("unknown_key", _edit(BASE, "kappa1 = 0.1", "kappa_one = 0.1"),
     "unknown key kappa_one in [params]"),
    ("unknown_schedule_key", _edit(BASE, "duration = 1.5", "duration = 1.5\nperiod = 2"),
     "unknown key period in [schedule]"),
    ("duplicate_key", _edit(BASE, "kappa1 = 0.1", "kappa1 = 0.1\nkappa1 = 0.2"),
     "duplicate key kappa1 in [params] at line 6"),
    ("missing_scenario_type", _edit(BASE, "type = convert\n", ""),
     "missing required key type in [scenario]"),
    ("missing_schedule_type", _edit(BASE, "type = trig\n", ""),
     "missing required key type in [schedule]"),
    ("unknown_scenario", _edit(BASE, "type = convert", "type = teleport"),
     "unknown scenario type 'teleport'; expected one of ('convert', 'spectrum', 'transmit', 'engineer')"),
    ("g_ref_zero", _edit(BASE, "type = convert", "type = convert\ng_ref = 0"), "g_ref must be positive"),
    ("invalid_params", _edit(BASE, "kappa1 = 0.1", "kappa1 = -0.1"),
     "invalid [params]: kappa1 must be non-negative, got -0.1"),
    ("negative_r", BASE + "\n[initial]\nr = -1\n", "squeezing r must be non-negative"),
    ("negative_mech", BASE + "\n[initial]\nmech_occupation = -1\n", "mech_occupation must be non-negative"),
    ("convert_unbounded", _edit(BASE, TRIG, "type = constant\ng1 = 1.0\ng2 = 2.0\n"),
     "convert scenario needs a schedule with finite duration"),
    ("transmit_ramp", _edit(TRANSMIT, "type = constant\ng1 = 4.0\ng2 = 3.0", TRIG.strip()),
     "transmit scenario needs a constant schedule"),
    ("transmit_sigma", _edit(TRANSMIT, "sigma_omega = 0.2", "sigma_omega = 0"),
     "transmit scenario needs [pulse] sigma_omega > 0"),
    ("pulse_points", TRANSMIT + "n_points = 1000\n", "[pulse] n_points must be a power of two >= 16"),
    ("spectrum_grid", _edit(SPECTRUM, "type = spectrum", "type = spectrum\nomega_min = 0.3\nomega_max = -0.3"),
     "spectrum grid needs omega_min < omega_max and n_omega >= 2"),
    ("delta_f_not_convert", _edit(SPECTRUM, "type = spectrum", "type = spectrum\ndelta_f = yes"),
     "delta_f is only meaningful for the convert scenario"),
    # order: g_ref, then [params], then [schedule], then the other fields, then [sweep]
    ("g_ref_before_params",
     _edit(_edit(BASE, "type = convert", "type = convert\ng_ref = -1"), "kappa1 = 0.1", "kappa1 = -0.1"),
     "g_ref must be positive"),
    ("params_before_schedule", _edit(_edit(BASE, "kappa1 = 0.1", "kappa1 = -0.1"), "amplitude = 5.0\n", ""),
     "invalid [params]: kappa1 must be non-negative, got -0.1"),
    ("schedule_before_initial", _edit(BASE, "amplitude = 5.0\n", "") + "\n[initial]\nr = big\n",
     "trig schedule needs amplitude, duration"),
    ("initial_before_scenario_grid",
     _edit(BASE, "type = convert", "type = convert\nn_omega = many") + "\n[initial]\nphi = wide\n",
     "malformed number for phi in [initial] at line 14: 'wide'"),
    ("grid_before_delta_f",
     _edit(BASE, "type = convert", "type = convert\ndelta_f = maybe\nomega_max = high"),
     "malformed number for omega_max in [scenario] at line 4: 'high'"),
    ("fields_before_sweep", _sweep("kappa1", "x") + "\n[pulse]\namplitude = loud\n",
     "malformed number for amplitude in [pulse] at line 17: 'loud'"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_config_message(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_sweep_point_errors():
    message = "invalid sweep point (-0.1, 0.5): kappa1 must be non-negative, got -0.1"
    with pytest.raises(ConfigError) as info:
        parse_config(_sweep("kappa1, r", "0.1:0.0, -0.1:0.5"))
    assert str(info.value) == message
    # apply_sweep_point makes the same check on a point added after parsing
    cfg = parse_config(_sweep("kappa1, r", "0.1:0.0"))
    cfg = dataclasses.replace(cfg, sweep=Sweep(cfg.sweep.parameters, cfg.sweep.points + ((-0.1, 0.5),)))
    assert apply_sweep_point(cfg, 0).params.kappa1 == 0.1
    with pytest.raises(ConfigError) as info:
        apply_sweep_point(cfg, 1)
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        apply_sweep_point(parse_config(BASE), 1)
    assert str(info.value) == "no sweep defined"


def test_sweep_point_without_params_field_emits_no_warning():
    # SystemParams warns once at parse time for kappa1 > omega_m/10; a sweep
    # that names no [params] field must not rebuild it and warn again
    text = _edit(BASE, "kappa1 = 0.1", "kappa1 = 0.3\nomega_m = 2") + "\n[sweep]\nparameter = r\nvalues = 0, 0.5, 1\n"
    with pytest.warns(UserWarning, match="omega_m/10"):
        cfg = parse_config(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [apply_sweep_point(cfg, i) for i in range(cfg.n_runs)]
    assert [p.r for p in points] == [0.0, 0.5, 1.0]
    assert all(p.params is cfg.params for p in points)


_real = st.floats(-50.0, 50.0, allow_subnormal=False)
_rate = st.floats(0.0, 2.0, allow_subnormal=False)
_positive = st.floats(0.01, 20.0)


@st.composite
def _piecewise(draw):
    steps = draw(st.lists(_positive, min_size=1, max_size=5))
    times = [0.0]
    for step in steps:
        times.append(times[-1] + step)
    n = len(times)
    g1, g2 = (tuple(draw(st.lists(_real, min_size=n, max_size=n))) for _ in "12")
    return PiecewiseLinearSchedule(tuple(times), g1, g2)


_FINITE_SCHEDULES = st.one_of(
    st.builds(TrigSchedule, _positive, _positive),
    st.builds(TanhRampSchedule, _positive, _real, _positive, _positive),
    st.builds(ConstantCoupling, _real, _real, _positive),
    _piecewise(),
)
_CONSTANT = st.builds(ConstantCoupling, _real, _real, st.one_of(st.just(float("inf")), _positive))


@st.composite
def _params(draw):
    rates = draw(st.tuples(_rate, _rate, _rate))
    n_th = draw(st.floats(0.0, 100.0))
    if draw(st.booleans()):
        return SystemParams(*rates, n_th)
    # resolved sideband: every rate below omega_m / 10, so no warning
    omega_m = draw(st.floats(25.0, 1000.0))
    detuning = -omega_m if draw(st.booleans()) else None
    return SystemParams(*rates, n_th, omega_m, detuning, detuning)


# swept values stay in each field's valid range: parse_config checks every point
_SWEEP_VALUES = {
    "kappa1": _rate, "kappa2": _rate, "gamma_m": _rate, "n_th": st.floats(0.0, 100.0),
    "r": st.floats(0.0, 3.0), "mech_occupation": st.floats(0.0, 100.0), "sigma_omega": _positive,
}


@st.composite
def _sweeps(draw):
    names = tuple(draw(st.lists(st.sampled_from(sorted(SWEEPABLE)), min_size=1, max_size=3, unique=True)))
    values = [_SWEEP_VALUES.get(name, _real) for name in names]
    points = draw(st.lists(st.tuples(*values), min_size=1, max_size=4))
    return Sweep(names, tuple(points))


@st.composite
def _configs(draw):
    scenario = draw(st.sampled_from(["convert", "spectrum", "transmit", "engineer"]))
    extra = {}
    if scenario in ("convert", "engineer"):
        schedule = draw(_FINITE_SCHEDULES)
    else:
        schedule = draw(_CONSTANT)
    if scenario in ("transmit", "engineer") or draw(st.booleans()):
        extra.update(
            sigma_omega=draw(_positive),
            pulse_amplitude=draw(_real.filter(bool)),  # a zero pulse is rejected
            pulse_points=2 ** draw(st.integers(4, 14)),
        )
    if scenario == "spectrum":
        lo = draw(_real)
        extra.update(omega_min=lo, omega_max=lo + draw(_positive), n_omega=draw(st.integers(2, 5000)))
    if scenario == "convert":
        extra["delta_f"] = draw(st.booleans())
    return ScenarioConfig(
        scenario=scenario,
        params=draw(_params()),
        schedule=schedule,
        g_ref=draw(_positive),
        alpha=complex(draw(_real), draw(_real)),
        r=draw(st.floats(0.0, 3.0)),
        phi=draw(_real),
        mech_occupation=draw(st.floats(0.0, 100.0)),
        sweep=draw(st.one_of(st.none(), _sweeps())),
        output_path=draw(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)),
        **extra,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_serialize_parse_round_trip(config):
    assert parse_config(serialize_config(config)) == config


def test_round_trip_keeps_fields_the_scenario_does_not_read():
    # a convert config with a spectrum grid and a pulse shape but no sigma_omega;
    # the serializer once dropped both, so the round trip lost them
    text = _edit(BASE, "type = convert", "type = convert\nomega_min = -1.0\nn_omega = 11")
    cfg = parse_config(text + "\n[pulse]\namplitude = 2.0\nn_points = 64\n")
    assert (cfg.omega_min, cfg.n_omega, cfg.pulse_amplitude, cfg.pulse_points) == (-1.0, 11, 2.0, 64)
    assert parse_config(serialize_config(cfg)) == cfg
