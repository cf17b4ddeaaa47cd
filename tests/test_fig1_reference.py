"""The Fig. 1 references: the mpmath file's provenance, and the exact frame of the trig ramp.

tests/reference/fig1_reference.csv must come from the generator next to it
and cover exactly the bundled Fig. 1 sweep points, so an edited generator
or config fails here until the file is regenerated.

For the trig ramp g1 = A sin theta, g2 = -A cos theta, theta = pi t / 2T,
with kappa1 = kappa2 the moment equations have an exact solution (see
exact_trig_moments).  It pins both integrators, the lossless transfer
amplitude D(T), row 0 of every Fig. 1 config (kappa1 = kappa2 = 0) and
the mpmath reference's row 0.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from fig1_reference import CONFIGS, DELTA_F_CONFIGS, GENERATOR, column, program_fidelities, read, sweep
from omtransfer.gaussian import (
    ThreeModeGaussianState,
    embed_initial,
    gaussian_fidelity,
    integrate,
    integrate_batch,
    make_squeezed_coherent,
    reduce_to_mode,
)
from omtransfer.model import SystemParams, TrigSchedule


def exact_trig_moments(state0, params, schedule, times):
    """(S, 3) means and (S, 3, 3) N and A at times under a TrigSchedule with kappa1 = kappa2.

    In the frame w = R^T v, R = [e_b, e_m, e_d] with the bright mode
    e_b = (sin theta, 0, -cos theta), which g1 a1 + g2 a2 = A e_b . v
    couples to, and the dark mode e_d = (cos theta, 0, sin theta), the drift
    is the constant G = theta' (e_b e_d^T - e_d e_b^T) - i A (e_b e_m^T +
    e_m e_b^T) - K/2, as R^T R' = theta' (e_d e_b^T - e_b e_d^T) and, with
    kappa1 = kappa2, R^T K R = K and R^T D R = D for the diffusion D.  So
    v(t) = R(theta_t) e^{G t} R(0)^T v(0), and the Van Loan block exponential
    exp([[G*, D], [0, -G^T]] t) = [[e^{G* t}, X], [0, .]] gives the noise
    R X e^{G^T t} R^T that N gains (Van Loan, IEEE TAC 23, 1978).
    """
    if params.kappa1 != params.kappa2:
        raise ValueError("the frame is exact for kappa1 = kappa2 only")
    times = np.asarray(times, dtype=float)
    rate = math.pi / (2.0 * schedule.duration)
    gen = -0.5 * np.diag([params.kappa1, params.gamma_m, params.kappa2]).astype(complex)
    gen[0, 2], gen[2, 0] = rate, -rate
    gen[0, 1] = gen[1, 0] = -1j * schedule.amplitude
    diffusion = np.diag([0.0, params.gamma_m * params.n_th, 0.0])
    phi = expm(times[:, None, None] * np.block([[gen.conj(), diffusion], [np.zeros((3, 3)), -gen.T]]))
    s, c = np.sin(rate * times), np.cos(rate * times)
    zero, one = np.zeros_like(s), np.ones_like(s)
    rot = np.moveaxis(np.array([[s, zero, c], [zero, one, zero], [-c, zero, s]]), -1, 0)
    e = phi[:, :3, :3].conj()
    u = rot @ e @ np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # R(0)^T
    ut = u.swapaxes(1, 2)
    noise = rot @ phi[:, :3, 3:] @ e.swapaxes(1, 2) @ rot.swapaxes(1, 2)
    return u @ state0.mean, u.conj() @ state0.normal @ ut + noise, u @ state0.anomalous @ ut


def _state_error(got, want) -> float:
    """Largest entry error of (mean, N, A) stacks, relative to the state scale max(1, |entries|)."""
    scale = max(1.0, *(np.abs(f).max() for f in want))
    return max(np.abs(g - f).max() for g, f in zip(got, want)) / scale


def _row0(name: str) -> tuple[float, float]:
    """F and delta_F of a Fig. 1 config's row 0 (kappa1 = kappa2 = 0) from the exact frame."""
    cfg = sweep(name)[0]
    initial = make_squeezed_coherent(cfg.alpha, cfg.r, cfg.phi)
    state0 = embed_initial(initial, cfg.mech_occupation)
    fid = []
    for params in (cfg.params, dataclasses.replace(cfg.params, gamma_m=0.0, n_th=0.0)):
        final = [f[-1] for f in exact_trig_moments(state0, params, cfg.schedule, [cfg.schedule.duration])]
        fid.append(gaussian_fidelity(initial, reduce_to_mode(ThreeModeGaussianState(*final), 3)))
    return fid[0], abs(fid[0] - fid[1])


# -- the mpmath reference file -------------------------------------------------

def test_reference_comes_from_the_generator_next_to_it():
    sha = hashlib.sha256(GENERATOR.read_bytes()).hexdigest()
    comment = read()[0]
    assert comment.startswith("# mpmath ")
    assert comment.endswith(f"make_fig1_reference.py sha256 {sha}"), "regenerate tests/reference/fig1_reference.csv"


def test_reference_rows_are_the_fig1_sweep_points():
    want = []
    for name in CONFIGS:
        for idx, cfg in enumerate(sweep(name)):
            p, s = cfg.params, cfg.schedule
            inputs = dict(kappa1=p.kappa1, kappa2=p.kappa2, gamma_m=p.gamma_m, n_th=p.n_th, alpha_re=cfg.alpha.real,
                          alpha_im=cfg.alpha.imag, r=cfg.r, phi=cfg.phi, mech_occupation=cfg.mech_occupation,
                          amplitude=s.amplitude, duration=s.duration)
            want.append((name, idx, inputs, name in DELTA_F_CONFIGS))
    rows = read()[1]
    assert len(rows) == len(want)
    for row, (name, idx, inputs, delta_f) in zip(rows, want):
        assert (row["config"], int(row["point"])) == (name, idx)
        assert {key: float(row[key]) for key in inputs} == inputs, f"{name} row {idx}"
        assert (row["delta_F"] != "") == (row["F_reference"] != "") == delta_f


# -- the exact frame -----------------------------------------------------------

SWEEP = list(itertools.product((0.0, 0.3), (0.0, 1.0), (0.0, 100.0)))  # kappa1 = kappa2, r, n_th


def _case(duration, kappa, r, n_th):
    params = SystemParams(kappa1=kappa, kappa2=kappa, gamma_m=2e-4 if n_th else 0.0, n_th=n_th)
    return embed_initial(make_squeezed_coherent(0.8 - 0.3j, r, 0.3), 0.0), params, TrigSchedule(5.0, duration)


def test_exact_frame_gives_the_lossless_transfer_amplitude():
    # D(T) = (A^2 + theta'^2 cos(Omega T)) / Omega^2, Omega^2 = A^2 + theta'^2; A = 5, theta' = 1
    d = (25.0 + math.cos(math.sqrt(26.0) * math.pi / 2)) / 26.0
    assert abs(d - 0.9555802654848538) <= math.ulp(d)
    schedule, params = TrigSchedule(5.0, math.pi / 2), SystemParams(kappa1=0.0, kappa2=0.0)
    state0 = embed_initial(make_squeezed_coherent(1.0, 0.0), 0.0)
    mean = exact_trig_moments(state0, params, schedule, [schedule.duration])[0][0]
    assert abs(mean[2] - d) <= math.ulp(d)  # measured: equal
    # measured: integrate's a2 is 8.4e-15 relative from D(T)
    assert integrate(state0, params, schedule, schedule.duration).final.mean[2] == pytest.approx(d, rel=3e-14, abs=0.0)


# measured: every sample within 6.0e-14 of the state scale (T = 0.5, kappa = 0.3, r = 1)
INTEGRATE_BOUND = 2e-13


@pytest.mark.parametrize("duration", [0.5, math.pi / 2, 3.0])
def test_integrate_matches_the_exact_frame(duration):
    for case in SWEEP:
        state0, params, schedule = _case(duration, *case)
        traj = integrate(state0, params, schedule, duration)
        want = exact_trig_moments(state0, params, schedule, traj.times)
        assert _state_error((traj.mean, traj.normal, traj.anomalous), want) <= INTEGRATE_BOUND, case


# measured, worst final state over SWEEP: 1.7e-14, 1.2e-15 and 6.2e-15 of the state scale at
# T = 0.5, pi/2 and 3; a 3x margin on the worst
BATCH_BOUND = 5e-14


@pytest.mark.parametrize("duration", [0.5, math.pi / 2, 3.0])
def test_integrate_batch_matches_the_exact_frame(duration):
    states0, params, schedules = zip(*(_case(duration, *case) for case in SWEEP))
    finals = integrate_batch(list(states0), list(params), schedules[0], duration)
    for case, state0, p, final in zip(SWEEP, states0, params, finals):
        want = [f[-1:] for f in exact_trig_moments(state0, p, schedules[0], [duration])]
        got = (final.mean[None], final.normal[None], final.anomalous[None])
        assert _state_error(got, want) <= BATCH_BOUND, case


# measured: the program's row 0 is within 4.4e-16 in F (fig1c_squeezed) and
# 3.7e-13 in delta_F (fig1c_squeezed) of the exact frame; a 4.5x and a 2.7x margin
@pytest.mark.parametrize("name", CONFIGS)
def test_fig1_row_0_matches_the_exact_frame(name):
    f_exact, delta_exact = _row0(name)
    f_num, delta_f = program_fidelities(name)
    assert f_num[0] == pytest.approx(f_exact, rel=2e-15, abs=0.0)
    if name in DELTA_F_CONFIGS:
        assert delta_f[0] == pytest.approx(delta_exact, rel=1e-12, abs=0.0)


# measured: the mpmath row 0 is within 2.3e-16 in F and 5.6e-14 in delta_F of the exact frame,
# whose float64 delta_F carries about 1e-16 / 1.4e-3 relative
@pytest.mark.parametrize("name", CONFIGS)
def test_reference_row_0_matches_the_exact_frame(name):
    f_exact, delta_exact = _row0(name)
    assert column(name, "F")[0] == pytest.approx(f_exact, rel=1e-15, abs=0.0)
    if name in DELTA_F_CONFIGS:
        assert column(name, "delta_F")[0] == pytest.approx(delta_exact, rel=2e-13, abs=0.0)
