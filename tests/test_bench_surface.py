"""The package names the benchmark in perfbench/ wraps or calls still exist.

perfbench's tracer replaces package functions by name, and its workloads
call a few library functions directly.  Deleting or renaming one of them
breaks every benchmark run, so these tests fail first.  They load
perfbench's own modules and change nothing there.  The last ones pin the
fast paths the workloads take: physicality validation that settles clean
chunks without eigvalsh, and lone eigensystems that keep the bits of a
sweep's first step.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def om():
    return _perfbench("package").load(ROOT)


def test_tracer_wraps_every_name_and_restores_it(om):
    tracing = _perfbench("tracing")
    before = (om.spectral.dark_mode_exact, om.model.adiabaticity, om.cli.parse_config, om.scenarios.write_atomic)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, om)
    try:
        wrapped = (om.spectral.dark_mode_exact, om.model.adiabaticity, om.cli.parse_config, om.scenarios.write_atomic)
        assert all(w is not b for w, b in zip(wrapped, before))
        m = om.model.dynamic_matrix_at(om.model.SystemParams(0.1, 0.1), om.model.ConstantCoupling(1.0, 1.0), 0.0)
        om.spectral.dark_mode_exact(m)
        assert tracer.counts["spectral.dark_mode.calls"] == 1
        # dark_mode_exact picks its column from raw eigenpairs and never calls eigensystem
        assert tracer.counts["spectral.eigensystem.calls"] == 0
        om.spectral.eigensystem(m)
        assert tracer.counts["spectral.eigensystem.calls"] == 1
    finally:
        tracer.restore()
    after = (om.spectral.dark_mode_exact, om.model.adiabaticity, om.cli.parse_config, om.scenarios.write_atomic)
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("t", [0.0, 25.0, 50.0, 100.0])
def test_dark_mode_of_dynamic_matrix_at(om, t):
    # the call trajectory_study makes at every 40th sample
    params = om.model.SystemParams(0.1, 0.2, 0.01, 1.0)
    schedule = om.model.TrigSchedule(amplitude=1.0, duration=100.0)
    dark = om.spectral.dark_mode_exact(om.model.dynamic_matrix_at(params, schedule, float(t)))
    g1, g2 = schedule.values(t)
    ideal = np.array([-g2, 0.0, g1]) / math.hypot(g1, g2)
    assert abs(np.vdot(ideal, dark.vector)) > 0.99
    assert dark.lambda1.imag < 0.0


def test_engineer_run_evaluates_its_schedule_at_most_twice(om, tmp_path):
    # one call per refinement round of the time-domain pulse path, never one per substep
    workloads, tracing = _perfbench("workloads"), _perfbench("tracing")
    item = next(
        i for i in workloads.generate("pulse_spectrum", 0)
        if i.kind == "engineer" and i.spec["schedule"]["type"] == "piecewise"
    )
    config = tmp_path / "engineer.cfg"
    config.write_text(item.text, encoding="utf-8")
    tracer = tracing.Tracer()
    tracing.instrument(tracer, om)
    try:
        assert om.cli.main(["run", str(config), "--out", str(tmp_path), "--jobs", "1"]) == 0
    finally:
        tracer.restore()
    assert tracer.counts["transmission.pulse_time.calls"] == 1
    assert 1 <= tracer.counts["model.values_calls"] <= 2


def test_trajectory_integrate_evaluates_its_schedule_once_per_chunk(om):
    # one schedule call per chunk of steps plus the peak-coupling probe, never one per step
    workloads, tracing = _perfbench("workloads"), _perfbench("tracing")
    item = workloads.generate("trajectory_study", 0)[0]
    workloads.setup(om, [item])
    prep, t_final = item.prepared, item.spec["T"]
    g_max = om.gaussian._peak_coupling(prep["schedule"], t_final)
    n_steps = om.gaussian._step_count(prep["params"], g_max, t_final)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, om)
    try:
        om.gaussian.integrate(prep["state0"], prep["params"], prep["schedule"], t_final, n_samples=workloads.ALL_SAMPLES)
    finally:
        tracer.restore()
    assert tracer.counts["gaussian.integrate.calls"] == 1
    assert tracer.counts["model.values_calls"] <= math.ceil(n_steps / om.gaussian._CHUNK_STEPS) + 1
    assert tracer.counts["gaussian.states_validated"] == n_steps + 1


def test_one_magnus_kernel_serves_both_propagators(om, monkeypatch):
    # the Gaussian-moment paths (integrate and integrate_batch) and the pulse path build their
    # panels, exponentiate and compose through the same model functions, one kernel call per
    # chunk of steps; the full-matrix kernel and the RK4 kernel are gone
    shared = ("_gauged_panels", "_magnus6_block_exp", "_scan")
    assert not hasattr(om.model, "_magnus6_exp") and not hasattr(om.model, "_magnus6_omega")
    assert not hasattr(om.gaussian, "_rk4_samples")
    seen = []
    for caller in ("gaussian", "transmission"):
        module = getattr(om, caller)
        for name in shared:
            assert getattr(module, name) is getattr(om.model, name)

            def spy(*args, _key=(caller, name), _real=getattr(om.model, name)):
                seen.append((*_key, args))
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
    workloads = _perfbench("workloads")
    items = workloads.generate("trajectory_study", 0)
    workloads.setup(om, items)
    for item in items:
        prep, t_final = item.prepared, item.spec["T"]
        n_steps = om.gaussian._step_count(prep["params"], om.gaussian._peak_coupling(prep["schedule"], t_final), t_final)
        seen.clear()
        om.gaussian.integrate(prep["state0"], prep["params"], prep["schedule"], t_final, n_samples=workloads.ALL_SAMPLES)
        chunks = math.ceil(n_steps / om.gaussian._CHUNK_STEPS)
        assert [name for _, name, _ in seen] == list(shared) * chunks
        if item.spec["schedule"]["type"] == "constant":
            # every step of a chunk shares one generator, so the kernel sees one column
            assert [args[0].shape[-1] for _, name, args in seen if name == "_magnus6_block_exp"] == [1] * chunks
    seen.clear()
    # a convert sweep: every doubling run of every row is one chunk of at most 1,024 steps
    state0 = om.gaussian.embed_initial(om.gaussian.make_squeezed_coherent(1.0, 0.4, 0.3), 1.5)
    params = [om.model.SystemParams(0.3, 0.1, 2e-4, 100.0), om.model.SystemParams(0.0, 0.0)]
    om.gaussian.integrate_batch([state0] * 2, params, om.model.TrigSchedule(5.0, math.pi / 2), math.pi / 2)
    assert len(seen) >= 2 * 2 * len(shared) and [name for _, name, _ in seen] == list(shared) * (len(seen) // 3)
    assert {caller for caller, _, _ in seen} == {"gaussian"}
    seen.clear()
    pulse = om.transmission.gaussian_pulse(0.2, 1.0, 256)
    om.transmission.transmit_pulse_time(pulse, om.model.SystemParams(0.32, 0.16, 1e-3), om.model.ConstantCoupling(4.0, 3.0))
    assert {(caller, name) for caller, name, _ in seen} == {("transmission", name) for name in shared}


def test_clean_chunks_skip_eigvalsh_and_a_faulty_chunk_calls_it_once(om, monkeypatch):
    # the Cholesky screen settles every clean chunk of integrate; eigvalsh runs only for a
    # chunk with a faulty row, once for the whole chunk
    workloads = _perfbench("workloads")
    item = workloads.generate("trajectory_study", 0)[0]
    workloads.setup(om, [item])
    prep, t_final = item.prepared, item.spec["T"]
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    traj = om.gaussian.integrate(prep["state0"], prep["params"], prep["schedule"], t_final, n_samples=workloads.ALL_SAMPLES)
    assert len(traj.times) > om.gaussian._CHUNK_STEPS and calls == []
    chunk = slice(1, 1 + om.gaussian._CHUNK_STEPS)  # integrate's first chunk of 1,024 states
    mean, normal, anomalous = traj.mean[chunk], traj.normal[chunk], traj.anomalous[chunk].copy()
    assert om.gaussian._first_fault(mean, normal, anomalous) is None and calls == []
    anomalous[500, 0, 0] += 5.0  # |m|^2 far above n(n+1)
    row, error = om.gaussian._first_fault(mean, normal, anomalous)
    assert (row, type(error)) == (500, om.gaussian.PhysicalityError) and calls == [1024]


@pytest.mark.parametrize("damping", [(0.1, 0.2, 0.01), (0.0, 0.0, 0.0)])
def test_lone_eigensystem_equals_the_first_step_of_a_sweep(om, damping):
    # one unreferenced matrix runs the sweep's code on a one-step chain and keeps every bit
    # of its first step; without damping the eigenvectors are real, and zero signs would show a change
    params = om.model.SystemParams(*damping, 1.0)
    schedule = om.model.TrigSchedule(amplitude=1.0, duration=100.0)
    h = 1e-3
    for t in np.linspace(0.0, schedule.duration - h, 200):
        lone = om.spectral.eigensystem(om.model.dynamic_matrix_at(params, schedule, float(t)))
        first = om.spectral.eigensystem_sweep(params, schedule, [t, t + h])[0]
        for field in ("lambdas", "vectors", "inverse"):
            assert getattr(lone, field).tobytes() == getattr(first, field).tobytes()
