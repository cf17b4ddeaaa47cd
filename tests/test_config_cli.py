import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omtransfer
from omtransfer.cli import main
from omtransfer.config import (
    ConfigError,
    ScenarioConfig,
    apply_sweep_point,
    parse_config,
    serialize_config,
)
from omtransfer.model import ConstantCoupling, SystemParams
from omtransfer.scenarios import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_CONVERT = """
[scenario]
type = convert

[params]
kappa1 = 0.1

[schedule]
type = trig
amplitude = 5.0
duration = 1.5707963267948966
"""


def test_minimal_convert_defaults():
    cfg = parse_config(MINIMAL_CONVERT)
    assert cfg.scenario == "convert"
    assert cfg.params.kappa2 == 0.0
    assert cfg.params.gamma_m == 0.0
    assert cfg.params.n_th == 0.0
    assert cfg.mech_occupation == 0.0  # defaults to n_th
    assert cfg.alpha == 1.0 + 0.0j
    assert cfg.pulse_amplitude == 1.0
    assert cfg.n_runs == 1
    assert cfg.output_path == "convert"


def test_mech_occupation_follows_n_th_default():
    cfg = parse_config(MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa1 = 0.1\nn_th = 7.5"))
    assert cfg.mech_occupation == 7.5


def test_unknown_key_message():
    bad = MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa_one = 0.1")
    with pytest.raises(ConfigError, match=r"unknown key kappa_one in \[params\]"):
        parse_config(bad)


def test_malformed_number_reports_line():
    bad = MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa1 = zero point one")
    with pytest.raises(ConfigError, match="line 6"):
        parse_config(bad)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key type"):
        parse_config("[params]\nkappa1 = 0.1\n")


def test_duplicate_key_rejected():
    bad = MINIMAL_CONVERT + "\n[params]\nkappa1 = 0.2\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(bad)


def test_invalid_params_become_config_errors():
    bad = MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa1 = -0.1")
    with pytest.raises(ConfigError, match=r"invalid \[params\]"):
        parse_config(bad)
    off_resonance = MINIMAL_CONVERT.replace(
        "kappa1 = 0.1", "kappa1 = 0.1\nomega_m = 50.0\ndetuning1 = -50.0\ndetuning2 = -49.0"
    )
    with pytest.raises(ConfigError, match="two-photon"):
        parse_config(off_resonance)
    on_resonance = MINIMAL_CONVERT.replace(
        "kappa1 = 0.1", "kappa1 = 0.1\nomega_m = 50.0\ndetuning1 = -50.0\ndetuning2 = -50.0"
    )
    cfg = parse_config(on_resonance)
    assert cfg.params.omega_m == 50.0


def test_sweep_validation():
    bad = MINIMAL_CONVERT + "\n[sweep]\nparameter = kappa9\nvalues = 1, 2\n"
    with pytest.raises(ConfigError, match="kappa9"):
        parse_config(bad)
    bad = MINIMAL_CONVERT + "\n[sweep]\nparameter = kappa1, kappa2\nvalues = 1, 2\n"
    with pytest.raises(ConfigError, match="sweep point"):
        parse_config(bad)


def test_fig2a_plans_four_runs():
    cfg = parse_config((SCENARIO_DIR / "fig2a.cfg").read_text())
    assert cfg.scenario == "spectrum"
    assert cfg.n_runs == 4
    point = apply_sweep_point(cfg, 3)
    assert point.params.kappa1 == 0.096
    assert point.params.kappa2 == 0.16


@pytest.mark.parametrize(
    "name",
    [
        "fig1b.cfg",
        "fig1b_squeezed.cfg",
        "fig1c.cfg",
        "fig1c_squeezed.cfg",
        "fig2a.cfg",
        "fig2b.cfg",
        "fig2cd.cfg",
        "engineer_step.cfg",
    ],
)
def test_bundled_configs_round_trip(name):
    cfg = parse_config((SCENARIO_DIR / name).read_text())
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_custom_config():
    cfg = ScenarioConfig(
        scenario="transmit",
        params=SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=1e-3),
        schedule=ConstantCoupling(4.0, 3.0),
        alpha=0.5 - 0.25j,
        sigma_omega=0.2,
        pulse_points=2048,
        output_path="demo",
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_scenario_schedule_compatibility():
    bad = MINIMAL_CONVERT.replace("type = trig", "type = constant").replace(
        "amplitude = 5.0", "g1 = 4.0"
    ).replace("duration = 1.5707963267948966", "g2 = 3.0")
    with pytest.raises(ConfigError, match="finite duration"):
        parse_config(bad)

    bad2 = MINIMAL_CONVERT.replace("type = convert", "type = transmit")
    with pytest.raises(ConfigError, match="constant schedule"):
        parse_config(bad2)


TRANSMIT_SMALL = """
[scenario]
type = transmit

[params]
kappa1 = 0.32
kappa2 = 0.16
gamma_m = 0.001

[schedule]
type = constant
g1 = 4.0
g2 = 3.0

[pulse]
sigma_omega = 0.2
n_points = 1024

[output]
path = small
"""


def test_run_transmit_and_determinism(tmp_path):
    cfg = parse_config(TRANSMIT_SMALL)
    first = run_scenario(cfg, out_dir=tmp_path / "a")
    second = run_scenario(cfg, out_dir=tmp_path / "b")
    assert [p.name for p in first.files] == ["small_in.csv", "small_out.csv", "small_summary.csv"]
    for fa, fb in zip(first.files, second.files):
        assert fa.read_bytes() == fb.read_bytes()
    scalars = dict(first.summaries[0].scalars)
    assert 0.0 < scalars["Fp"] <= 1.0
    assert math.isfinite(scalars["half_width_numeric"])


def test_convert_scenario_csv_columns(tmp_path):
    text = MINIMAL_CONVERT + "\n[sweep]\nparameter = kappa1\nvalues = 0.1, 0.2\n"
    artifacts = run_scenario(parse_config(text), out_dir=tmp_path)
    csv = artifacts.files[0].read_text().splitlines()
    assert csv[0] == "kappa1,F_numeric,F1_analytic,F_analytic,F2_analytic,f0T,fs"
    assert len(csv) == 3
    # floats are written with 12 significant digits
    f_num = csv[1].split(",")[1]
    assert len(f_num.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_convert_analytic_columns_blank_outside_regime(tmp_path):
    text = MINIMAL_CONVERT + "\n[sweep]\nparameter = kappa1\nvalues = 0.1, 1.0\n"
    artifacts = run_scenario(parse_config(text), out_dir=tmp_path)
    rows = artifacts.files[0].read_text().splitlines()
    assert rows[2].split(",")[2] == ""  # f(0,T) = pi/8 at kappa1 = 1 is >= 0.3


def test_delta_f_columns(tmp_path):
    cfg = parse_config((SCENARIO_DIR / "fig1c.cfg").read_text())
    # shrink the sweep for test runtime
    import dataclasses

    from omtransfer.config import Sweep

    cfg = dataclasses.replace(
        cfg, sweep=Sweep(parameters=("kappa1",), points=((0.5,),))
    )
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    header = artifacts.files[0].read_text().splitlines()[0].split(",")
    assert header[-3:] == ["F_reference", "delta_F", "fs_bound"]
    scalars = dict(artifacts.summaries[0].scalars)
    assert scalars["delta_F"] >= 0.0


def test_cli_validate_and_run(tmp_path, capsys):
    code = main(["validate", str(SCENARIO_DIR / "fig2a.cfg")])
    assert code == 0
    assert "4 run(s)" in capsys.readouterr().out

    out_dir = tmp_path / "fig2a"
    code = main(["run", str(SCENARIO_DIR / "fig2a.cfg"), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    files = sorted(p.name for p in out_dir.glob("*.csv"))
    assert files == ["fig2a_001.csv", "fig2a_002.csv", "fig2a_003.csv", "fig2a_004.csv"]
    header = (out_dir / "fig2a_001.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "omega"


def test_cli_parallel_jobs_identical_output(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["run", str(SCENARIO_DIR / "fig2a.cfg"), "--out", str(serial)]) == 0
    assert main(["run", str(SCENARIO_DIR / "fig2a.cfg"), "--out", str(parallel), "--jobs", "4"]) == 0
    for name in ("fig2a_001.csv", "fig2a_004.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa_one = 0.1"))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    # kappa1 = 0 blocks the input channel entirely: the transmitted pulse is
    # identically zero and the pulse-fidelity integral is undefined
    bad = tmp_path / "zero.cfg"
    bad.write_text(TRANSMIT_SMALL.replace("kappa1 = 0.32", "kappa1 = 0.0"))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "numeric error" in capsys.readouterr().err


def test_csv_line_endings(tmp_path):
    artifacts = run_scenario(parse_config(TRANSMIT_SMALL), out_dir=tmp_path)
    blob = artifacts.files[0].read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


@pytest.mark.parametrize("name", ["fig2cd.cfg", "engineer_step.cfg"])
def test_bundled_scenarios_complete_quickly(name, tmp_path):
    import time

    cfg = parse_config((SCENARIO_DIR / name).read_text())
    start = time.perf_counter()
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    assert time.perf_counter() - start < 60.0
    assert artifacts.files


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it would cost every start-up about 0.15 s
    src = str(Path(omtransfer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, omtransfer, omtransfer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _swept(text, parameter, values):
    return text.split("[sweep]")[0].split("[output]")[0] + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n"


FIG2B = (SCENARIO_DIR / "fig2b.cfg").read_text()

# (config text, the bad point and the check it fails)
BAD_SWEEP_POINTS = {
    "r": (_swept(MINIMAL_CONVERT, "r", "0.2, -0.5"), "(-0.5,): squeezing r must be non-negative"),
    "r_overflow": (
        _swept(MINIMAL_CONVERT, "r", "0.2, 400.0"),
        "(400.0,): squeezing r = 400.0 is out of range: sinh^2 r is not a finite float",
    ),
    "mech_occupation": (
        _swept(MINIMAL_CONVERT, "mech_occupation", "0.0, -1.0"),
        "(-1.0,): mech_occupation must be non-negative",
    ),
    "kappa1": (_swept(MINIMAL_CONVERT, "kappa1", "0.2, -0.1"), "(-0.1,): kappa1 must be non-negative, got -0.1"),
    "sigma_omega": (
        _swept(FIG2B, "sigma_omega", "0.008, -0.2"),
        "(-0.2,): transmit scenario needs [pulse] sigma_omega > 0",
    ),
}


@pytest.mark.parametrize("text, message", BAD_SWEEP_POINTS.values(), ids=BAD_SWEEP_POINTS.keys())
def test_bad_sweep_point_is_a_config_error(text, message, tmp_path, capsys):
    path = tmp_path / "swept.cfg"
    path.write_text(text)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: invalid sweep point {message}\n"
    assert not list(tmp_path.rglob("*.csv"))


def _replaced(text, old, new):
    assert text.count(old) == 1
    return text.replace(old, new)


ENGINEER_STEP = (SCENARIO_DIR / "engineer_step.cfg").read_text()
FIG2A = (SCENARIO_DIR / "fig2a.cfg").read_text()

# (config text, the error naming its non-finite or zero number)
NON_FINITE = {
    **{
        f"kappa1_{v}": (_replaced(MINIMAL_CONVERT, "kappa1 = 0.1", f"kappa1 = {v}"),
                        f"invalid [params]: kappa1 must be finite, got {v}")
        for v in ("nan", "inf")
    },
    "n_th_inf": (_replaced(MINIMAL_CONVERT, "kappa1 = 0.1", "kappa1 = 0.1\nn_th = inf"),
                 "invalid [params]: n_th must be finite, got inf"),
    **{
        f"trig_amplitude_{v}": (_replaced(MINIMAL_CONVERT, "amplitude = 5.0", f"amplitude = {v}"),
                                f"invalid schedule: TrigSchedule amplitude must be finite, got {v}")
        for v in ("nan", "inf")
    },
    "alpha_re_inf": (MINIMAL_CONVERT + "\n[initial]\nalpha_re = inf\n", "alpha must be finite, got (inf+0j)"),
    **{f"r_{v}": (MINIMAL_CONVERT + f"\n[initial]\nr = {v}\n", f"r must be finite, got {v}") for v in ("nan", "inf")},
    **{
        f"sigma_omega_{v}": (_replaced(ENGINEER_STEP, "sigma_omega = 0.2", f"sigma_omega = {v}"),
                             f"sigma_omega must be finite, got {v}")
        for v in ("nan", "inf")
    },
    "pulse_amplitude_nan": (_replaced(ENGINEER_STEP, "amplitude = 1.0", "amplitude = nan"),
                            "pulse_amplitude must be finite, got nan"),
    "pulse_amplitude_0": (_replaced(ENGINEER_STEP, "amplitude = 1.0", "amplitude = 0"),
                          "[pulse] amplitude must be nonzero"),
    **{
        f"constant_g1_{v}": (_replaced(FIG2A, "g1 = 4.0\n", f"g1 = {v}\n"),
                             f"invalid schedule: ConstantCoupling g1 must be finite, got {v}")
        for v in ("nan", "inf")
    },
}


@pytest.mark.parametrize("text, message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_number_is_a_config_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.rglob("*")) == [path]


def test_failed_run_writes_no_csv(tmp_path, capsys):
    # the second point has kappa2 = 0, so its half-width fails after the first point has run
    path = tmp_path / "fig2a.cfg"
    path.write_text(_swept((SCENARIO_DIR / "fig2a.cfg").read_text(), "kappa1, kappa2", "0.48:0.27, 0.32:0.0"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "half-width requires kappa1, kappa2 > 0" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_run_prints_no_warning_twice(tmp_path):
    # every point rebuilds SystemParams above omega_m/10, and parse_config and the
    # run both materialize each point; the f(0,T) warnings differ from point to point
    text = _swept(MINIMAL_CONVERT.replace("kappa1 = 0.1", "kappa1 = 0.3\nomega_m = 2"), "kappa1", "0.25, 0.3, 0.35")
    path = tmp_path / "warn.cfg"
    path.write_text(text)
    src = str(Path(omtransfer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run(
        [sys.executable, "-m", "omtransfer.cli", "run", str(path), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    warned = [line for line in out.stderr.splitlines() if "Warning:" in line]
    assert sum("omega_m/10" in line for line in warned) == 1
    assert sum("f(0,T)" in line for line in warned) == 2
    assert len(set(warned)) == len(warned)


def test_unrepresentable_squeezing_is_a_config_error(tmp_path, capsys):
    # sinh^2 r overflows a float past r = 355 or so: a config error, caught before run starts any work
    path = tmp_path / "squeezed.cfg"
    path.write_text(MINIMAL_CONVERT + "\n[initial]\nr = 400\n")
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: squeezing r = 400.0 is out of range: sinh^2 r is not a finite float\n"
    assert not (tmp_path / "out").exists()


def test_squeezing_past_a_finite_uncertainty_scale_is_a_config_error(tmp_path, capsys):
    # sinh^2 r is still finite at r = 355.5, but cosh 2r = 2 sinh^2 r + 1 is not
    path = tmp_path / "squeezed.cfg"
    path.write_text(MINIMAL_CONVERT + "\n[initial]\nr = 355.5\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: squeezing r = 355.5 is out of range: cosh 2r = 2 sinh^2 r + 1 is not a finite float\n"
    )


def test_strongly_squeezed_config_runs(tmp_path):
    # at r = 3.91, n(n+1) and |m|^2 are both near 3.9e5, past an absolute 1e-10 tolerance
    path = tmp_path / "squeezed.cfg"
    path.write_text((SCENARIO_DIR / "fig1b_squeezed.cfg").read_text().replace("r = 0.4", "r = 3.91"))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig1b_squeezed.csv").exists()


@pytest.mark.parametrize("name, kind", [("fig1b", "convert"), ("fig2a", "spectrum"), ("fig2b", "transmit")])
def test_write_failure_is_a_numeric_error(name, kind, tmp_path, capsys):
    # --out names a regular file, so the first write fails once every point has run
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", str(SCENARIO_DIR / f"{name}.cfg"), "--out", str(out)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"numeric error: {kind} run failed: [Errno 17] File exists: {str(out)!r}"
    assert not list(tmp_path.rglob("*.csv"))
