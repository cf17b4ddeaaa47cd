import dataclasses
import math
import signal
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from omtransfer.cli import main
from omtransfer.config import parse_config
from omtransfer.model import ConstantCoupling, PiecewiseLinearSchedule, SystemParams, TanhRampSchedule
from omtransfer.transmission import (
    Pulse,
    TransmissionError,
    gaussian_pulse,
    half_width,
    pulse_energy,
    pulse_fidelity,
    pulse_to_csv,
    spectrum_to_csv,
    t31_resonant,
    transmission_matrix,
    transmission_spectrum,
    transmit_pulse_freq,
    transmit_pulse_time,
)

G0 = 5.0
FIG2_PAIRS = [(0.096, 0.054), (0.064, 0.036), (0.032, 0.018), (0.0192, 0.032)]


def fig2_params(k1_rel, k2_rel):
    return SystemParams(kappa1=k1_rel * G0, kappa2=k2_rel * G0, gamma_m=2e-4 * G0)


def closed_form_m(params, g1, g2):
    # M entry by entry, independent of model.drift_stack
    return np.array(
        [
            [-0.5j * params.kappa1, g1, 0.0],
            [g1, -0.5j * params.gamma_m, g2],
            [0.0, g2, -0.5j * params.kappa2],
        ]
    )


def closed_form_t31(params, g1, g2, omega):
    # independent evaluation via the generic linear solve
    m = closed_form_m(params, g1, g2)
    sk = np.diag(np.sqrt([params.kappa1, params.gamma_m, params.kappa2]))
    t = np.eye(3) - 1j * sk @ np.linalg.solve(omega * np.eye(3) - m, sk)
    return t


def test_zero_damping_identity():
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.0)
    for w in (-3.0, 0.0, 5.0):
        assert_allclose(transmission_matrix(p, 4.0, 3.0, w), np.eye(3), atol=0.0)


def test_far_off_resonance_identity():
    p = fig2_params(0.064, 0.036)
    t = transmission_matrix(p, 4.0, 3.0, 1e6)
    assert np.abs(t - np.eye(3)).max() < 1e-4


def test_matrix_is_unitary_with_all_channels():
    # K carries every decay channel of M, so scattering conserves flux and
    # T(omega) is unitary on the real axis; a sharp probe of sign conventions
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = SystemParams(*rng.uniform(0.02, 1.5, size=3))
        g1, g2 = rng.uniform(-4.0, 4.0, size=2)
        t = transmission_matrix(p, g1, g2, rng.uniform(-8.0, 8.0))
        assert np.abs(t.conj().T @ t - np.eye(3)).max() < 1e-12


def test_matrix_matches_generic_solver():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = SystemParams(*rng.uniform(0.05, 1.0, size=3))
        g1, g2 = rng.uniform(-4.0, 4.0, size=2)
        w = rng.uniform(-6.0, 6.0)
        assert_allclose(
            transmission_matrix(p, g1, g2, w), closed_form_t31(p, g1, g2, w), atol=1e-12
        )


@pytest.mark.parametrize("pair", FIG2_PAIRS)
def test_resonant_matrix_matches_closed_form(pair):
    p = fig2_params(*pair)
    t31 = transmission_matrix(p, 4.0, 3.0, 0.0)[2, 0]
    res = t31_resonant(p, 4.0, 3.0)
    assert abs(abs(t31) - res.value) <= 1e-12 * res.value


def test_t31_resonant_values():
    # worked example with the kappa/g0 ratios used directly as rates
    p = SystemParams(kappa1=0.064, kappa2=0.036, gamma_m=2e-4)
    res = t31_resonant(p, 4.0, 3.0)
    assert res.value == pytest.approx(4.608 / (2.304 + 2.304 + 4.608e-7), rel=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.optimal  # 16 * 0.036 == 9 * 0.064

    assert t31_resonant(SystemParams(kappa1=0.0, kappa2=0.3), 4.0, 3.0).value == 0.0

    sym = t31_resonant(SystemParams(kappa1=0.2, kappa2=0.2, gamma_m=0.0), 2.0, 2.0)
    assert sym.value == pytest.approx(1.0, abs=1e-15)

    non_opt = t31_resonant(fig2_params(0.0192, 0.032), 4.0, 3.0)
    assert not non_opt.optimal


def test_half_width_values():
    p = SystemParams(kappa1=0.064, kappa2=0.036, gamma_m=2e-4)
    analytic, numeric = half_width(p, 4.0, 3.0)
    expected = math.sqrt(3.0) * (16 * 0.036 + 9 * 0.064 + 2e-4 * 0.064 * 0.036 / 4) / 50.0
    assert analytic == pytest.approx(expected, rel=1e-12)
    assert analytic == pytest.approx(0.03991, abs=5e-6)
    assert abs(analytic - numeric) / numeric < 0.05


def test_half_width_target_pair_value():
    p = fig2_params(0.064, 0.032)
    analytic, _ = half_width(p, 4.0, 3.0)
    assert analytic / G0 == pytest.approx(0.0377, abs=5e-5)
    assert abs(analytic / G0 - 0.04) / 0.04 < 0.07


def _give_up(signum, frame):
    raise TimeoutError("half_width did not return within 10 s")


# measured: |T31| at the half-width is within 5.6e-16 relative of |T31(0)|/2 by the LAPACK
# solve, at the bundled fig2 points and at the large scale below; bound ~9x that
T31_HALF_RTOL = 5e-15


def test_half_width_terminates_at_large_scale():
    # the crossing lies near 2.6e6, where the float spacing exceeds 1e-10
    p = SystemParams(kappa1=3e6, kappa2=3e6)
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(10)
    try:
        _, numeric = half_width(p, 4e7, 4e7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    t31 = np.abs(transmission_spectrum(p, 4e7, 4e7, np.array([0.0, numeric])).t31())
    assert abs(t31[1] - t31[0] / 2) <= T31_HALF_RTOL * t31[0] / 2


@pytest.mark.parametrize("pair", FIG2_PAIRS)
def test_half_width_numeric_vs_analytic(pair):
    analytic, numeric = half_width(fig2_params(*pair), 4.0, 3.0)
    assert abs(analytic - numeric) / numeric < 0.05


def half_width_root(params, g1, g2):
    """The smallest root in (0, g0/2] of |det(w I - M)|^2 - 4 |det M|^2, from the companion matrix.

    T31(w) is proportional to 1 / det(w I - M), so there |T31(w)| = |T31(0)| / 2;
    the left side is a real polynomial of degree 6 in w.
    """
    m = np.array([[-0.5j * params.kappa1, g1, 0.0], [g1, -0.5j * params.gamma_m, g2], [0.0, g2, -0.5j * params.kappa2]])
    det = np.poly(m)  # coefficients of det(w I - M), from the eigenvalues of M
    poly = np.polymul(det, det.conj()).real
    poly[-1] -= 4.0 * abs(det[-1]) ** 2
    roots = np.roots(poly)  # eigenvalues of the companion matrix
    return roots.real[(roots.imag == 0.0) & (roots.real > 0.0) & (roots.real <= math.hypot(g1, g2) / 2)].min()


def test_half_width_root_of_the_fig2b_point():
    root = half_width_root(SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=0.001), 4.0, 3.0)
    assert root == pytest.approx(0.188816855521, abs=5e-13)


# the bundled fig2 points; measured: half_width is within 1.7e-15 relative of the oracle's root
# at these, both rounding of np.roots on differently formed coefficients; bound ~6x that
BUNDLED_KAPPAS = [(0.48, 0.27), (0.32, 0.18), (0.16, 0.09), (0.096, 0.16), (0.32, 0.16)]
HALF_WIDTH_RTOL = 1e-14


@pytest.mark.parametrize("kappa", BUNDLED_KAPPAS)
def test_half_width_is_the_polynomial_root(kappa):
    params = SystemParams(kappa1=kappa[0], kappa2=kappa[1], gamma_m=0.001)
    numeric = half_width(params, 4.0, 3.0)[1]
    assert numeric == pytest.approx(half_width_root(params, 4.0, 3.0), rel=HALF_WIDTH_RTOL, abs=0.0)


@pytest.mark.parametrize("kappa", BUNDLED_KAPPAS)
def test_half_width_halves_the_solved_t31(kappa):
    # checked by the batched LAPACK solve, which shares no code with np.roots
    params = SystemParams(kappa1=kappa[0], kappa2=kappa[1], gamma_m=0.001)
    numeric = half_width(params, 4.0, 3.0)[1]
    t31 = np.abs(transmission_spectrum(params, 4.0, 3.0, np.array([0.0, numeric])).t31())
    assert abs(t31[1] - t31[0] / 2) <= T31_HALF_RTOL * t31[0] / 2


@pytest.mark.parametrize("g1, g2", [(0.0, 3.0), (4.0, 0.0), (math.nan, 3.0), (math.inf, 3.0), (1e200, 1e200)])
def test_half_width_without_transmission_has_no_crossing(g1, g2):
    # with g1 g2 = 0, T31 vanishes identically though |det(w)|^2 - 4 |det(0)|^2 has a root
    # in (0, g0/2]; past that, the polynomial is not finite and np.roots would raise LinAlgError
    with pytest.raises(TransmissionError, match="no half-width crossing"):
        half_width(SystemParams(0.32, 0.18, 1e-3), g1, g2)


def test_half_width_requires_damping():
    with pytest.raises(TransmissionError):
        half_width(SystemParams(kappa1=0.0, kappa2=0.1), 4.0, 3.0)


def test_spectrum_invariants_on_fig2a_grid():
    omegas = np.linspace(-0.3, 0.3, 601)
    for pair in FIG2_PAIRS:
        spec = transmission_spectrum(fig2_params(*pair), 4.0, 3.0, omegas)
        t31 = np.abs(spec.t31())
        assert np.argmax(t31) == 300  # maximum sits at omega = 0
        assert t31.max() <= 1.0 + 1e-9


def test_passivity_on_wide_grid():
    omegas = np.linspace(-8.0, 8.0, 4001)
    for pair in FIG2_PAIRS:
        spec = transmission_spectrum(fig2_params(*pair), 4.0, 3.0, omegas)
        assert np.abs(spec.t31()).max() <= 1.0 + 1e-9


def test_noise_suppression_at_optimal_pairs():
    for pair in FIG2_PAIRS[:3]:
        t = transmission_matrix(fig2_params(*pair), 4.0, 3.0, 0.0)
        assert abs(t[2, 1]) < 0.05 and abs(t[2, 2]) < 0.05


@pytest.mark.parametrize("field", ["times", "amplitudes"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pulse_rejects_non_finite_samples(field, bad):
    samples = {"times": np.array([0.0, 1.0, 2.0]), "amplitudes": np.array([1.0, 0.5, 0.0j])}
    samples[field][1] = bad
    with pytest.raises(TransmissionError, match="finite"):
        Pulse(**samples)


def test_pulse_fidelity_reference_cases():
    p = gaussian_pulse(0.2)
    assert pulse_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)
    scaled = Pulse(times=p.times.copy(), amplitudes=(0.3 - 0.2j) * p.amplitudes)
    assert pulse_fidelity(p, scaled) == pytest.approx(1.0, abs=1e-12)


def test_pulse_fidelity_of_delayed_gaussian():
    sigma = 0.2
    tau = 2.5
    span = 32.0 / sigma
    t = np.linspace(0.0, span, 8192)
    tc = span / 2
    a = np.exp(-0.5 * sigma**2 * (t - tc) ** 2)
    b = np.exp(-0.5 * sigma**2 * (t - tc - tau) ** 2)
    fp = pulse_fidelity(Pulse(times=t, amplitudes=a), Pulse(times=t, amplitudes=b))
    assert fp == pytest.approx(math.exp(-(sigma**2) * tau**2 / 2.0), rel=1e-6)


def test_pulse_fidelity_zero_norm_error():
    p = gaussian_pulse(0.2)
    zero = Pulse(times=p.times.copy(), amplitudes=np.zeros_like(p.amplitudes))
    with pytest.raises(TransmissionError):
        pulse_fidelity(p, zero)


def test_pulse_fidelity_zero_extends_the_shorter_pulse():
    p = gaussian_pulse(0.2, n_points=256)
    delayed = np.roll(np.pad(p.amplitudes, (0, 768)), 100)
    longer = Pulse(times=p.times[0] + p.dt * np.arange(1024), amplitudes=delayed)
    padded = Pulse(times=longer.times, amplitudes=np.pad(p.amplitudes, (0, 768)))
    assert pulse_fidelity(p, longer) == pulse_fidelity(padded, longer) == pulse_fidelity(longer, p)
    assert pulse_fidelity(p, longer) < 0.5


def test_pulse_fidelity_rejects_pulses_on_different_grids():
    p = gaussian_pulse(0.2, n_points=256)
    for times in (2.0 * p.times, p.times + 0.5 * p.dt, p.times[0] + p.dt * (1 + 1e-6) * np.arange(256)):
        with pytest.raises(TransmissionError, match="same start and spacing"):
            pulse_fidelity(p, Pulse(times=times, amplitudes=p.amplitudes))


def test_transmit_freq_zero_damping_blocks_input():
    p_in = gaussian_pulse(0.2)
    out = transmit_pulse_freq(p_in, SystemParams(kappa1=0.0, kappa2=0.0), 4.0, 3.0)
    assert np.abs(out.amplitudes).max() == 0.0


def test_transmit_freq_rejects_clipped_window():
    t = np.linspace(0.0, 10.0, 1024)
    clipped = Pulse(times=t, amplitudes=np.exp(-0.01 * (t - 5.0) ** 2))
    with pytest.raises(TransmissionError, match="edge"):
        transmit_pulse_freq(clipped, fig2_params(0.064, 0.032), 4.0, 3.0)


def test_pulse_fidelity_monotone_in_spectral_width():
    p = fig2_params(0.064, 0.032)
    fps = []
    for s_rel in (0.004, 0.008, 0.02, 0.04, 0.08):
        p_in = gaussian_pulse(s_rel * G0)
        out = transmit_pulse_freq(p_in, p, 4.0, 3.0)
        fps.append(pulse_fidelity(p_in, out))
    assert all(a > b for a, b in zip(fps, fps[1:]))


def test_pulse_fidelity_increases_with_half_width():
    s_rel = 0.02
    ordered = []
    for pair in FIG2_PAIRS:
        params = fig2_params(*pair)
        hw = half_width(params, 4.0, 3.0)[0]
        p_in = gaussian_pulse(s_rel * G0)
        fp = pulse_fidelity(p_in, transmit_pulse_freq(p_in, params, 4.0, 3.0))
        ordered.append((hw, fp))
    ordered.sort()
    fps = [fp for _, fp in ordered]
    assert all(a < b for a, b in zip(fps, fps[1:]))


def _padded_input(p_in: Pulse) -> Pulse:
    n = p_in.times.size
    amps = np.zeros(4 * n, dtype=complex)
    amps[:n] = p_in.amplitudes
    times = p_in.times[0] + p_in.dt * np.arange(4 * n)
    return Pulse(times=times, amplitudes=amps)


def test_time_domain_matches_frequency_domain():
    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.04 * G0)
    out_f = transmit_pulse_freq(p_in, params, 4.0, 3.0)
    out_t = transmit_pulse_time(_padded_input(p_in), params, ConstantCoupling(4.0, 3.0))
    rel = np.linalg.norm(out_t.amplitudes - out_f.amplitudes) / np.linalg.norm(
        out_f.amplitudes
    )
    assert rel < 5e-6  # measured 5.6e-7: the linear interpolation of the input against the FFT


def test_time_domain_zero_couplings_zero_output():
    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.2, n_points=1024)
    out = transmit_pulse_time(p_in, params, ConstantCoupling(0.0, 0.0))
    assert np.abs(out.amplitudes).max() < 1e-12


def test_step_schedule_reduces_output_energy():
    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.2, n_points=1024)
    t_end = float(p_in.times[-1])
    t_mid = t_end / 2.0
    step = PiecewiseLinearSchedule(
        times=(0.0, t_mid, t_mid * 1.0001, t_end),
        g1_values=(0.0, 0.0, 4.0, 4.0),
        g2_values=(0.0, 0.0, 3.0, 3.0),
    )
    gated = transmit_pulse_time(p_in, params, step)
    steady = transmit_pulse_time(p_in, params, ConstantCoupling(4.0, 3.0))
    assert pulse_energy(gated) < pulse_energy(steady)
    assert pulse_energy(gated) > 0.0


def test_schedule_ending_at_the_last_sample_is_accepted():
    # no node time of the last panel may round past t_end
    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.15, n_points=1024)
    exact = ConstantCoupling(4.0, 3.0, duration=float(p_in.times[-1]))
    out = transmit_pulse_time(p_in, params, exact)
    unbounded = transmit_pulse_time(p_in, params, ConstantCoupling(4.0, 3.0))
    assert out.amplitudes.tobytes() == unbounded.amplitudes.tobytes()


def test_schedule_domain_mismatch():
    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.2, n_points=1024)
    short = PiecewiseLinearSchedule(
        times=(0.0, 1.0), g1_values=(4.0, 4.0), g2_values=(3.0, 3.0)
    )
    with pytest.raises(TransmissionError, match="schedule"):
        transmit_pulse_time(p_in, params, short)


def test_csv_exports():
    p = gaussian_pulse(0.2, n_points=64)
    text = pulse_to_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 65

    spec = transmission_spectrum(fig2_params(0.064, 0.036), 4.0, 3.0, np.linspace(-0.3, 0.3, 5))
    stext = spectrum_to_csv(spec)
    slines = stext.strip().split("\n")
    assert slines[0].startswith("omega,re_t11,im_t11")
    assert len(slines[0].split(",")) == 19
    assert len(slines) == 6


def test_spectrum_matches_per_omega_generic_solve():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = SystemParams(*rng.uniform(0.02, 1.5, size=3))
        g1, g2 = rng.uniform(-4.0, 4.0, size=2)
        omegas = rng.uniform(-6.0, 6.0, size=50)
        spec = transmission_spectrum(p, g1, g2, omegas)
        assert np.array_equal(spec.omegas, np.sort(omegas))
        want = np.array([closed_form_t31(p, g1, g2, w) for w in spec.omegas])
        assert np.abs(spec.matrices - want).max() <= 1e-13


def test_spectrum_equals_matrix_per_omega():
    p = fig2_params(0.064, 0.036)
    omegas = np.linspace(-0.3, 0.3, 31)
    spec = transmission_spectrum(p, 4.0, 3.0, omegas)
    for w, mat in zip(spec.omegas, spec.matrices):
        assert np.array_equal(mat, transmission_matrix(p, 4.0, 3.0, w))


def test_spectrum_zero_damping_is_exact_identity():
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.0)
    spec = transmission_spectrum(p, 4.0, 3.0, np.array([0.0, 2.0, -1.5]))
    assert np.array_equal(spec.matrices, np.broadcast_to(np.eye(3), (3, 3, 3)))


def test_lossless_dark_mode_is_singular_at_resonance():
    # with kappa1 = kappa2 = 0 the dark mode g2 a1 - g1 a2 is an undamped
    # eigenmode of M at frequency 0, so (I w - M) is exactly singular there
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.3)
    with pytest.raises(TransmissionError, match="singular at omega = 0.0"):
        transmission_matrix(p, 4.0, 3.0, 0.0)
    with pytest.raises(TransmissionError, match="singular at omega = 0.0"):
        transmission_spectrum(p, 4.0, 3.0, np.array([0.5, 0.0, -0.5]))
    # away from resonance the same network transmits nothing between cavities
    t = transmission_matrix(p, 4.0, 3.0, 0.5)
    assert t[2, 0] == 0.0 and t[0, 0] == 1.0


def _dop853_output(p_in, params, schedule):
    """-sqrt(k2) <a2> by DOP853 between consecutive samples and breakpoints, where drive and couplings are smooth."""
    t_grid, u = p_in.times, p_in.amplitudes

    def rhs(t, y):
        g1, g2 = (float(g) for g in schedule.values(t))
        v = y[:3] + 1j * y[3:]
        drive = math.sqrt(params.kappa1) * (np.interp(t, t_grid, u.real) + 1j * np.interp(t, t_grid, u.imag))
        d = np.array([-0.5 * params.kappa1 * v[0] - 1j * g1 * v[1] + drive,
                      -1j * g1 * v[0] - 0.5 * params.gamma_m * v[1] - 1j * g2 * v[2],
                      -1j * g2 * v[1] - 0.5 * params.kappa2 * v[2]])
        return np.concatenate([d.real, d.imag])

    edges = np.union1d(t_grid, getattr(schedule, "times", (0.0,))[1:-1])
    y, a2 = np.zeros(6), {0.0: 0.0}
    for lo, hi in zip(edges, edges[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-11, atol=1e-14).y[:, -1]
        a2[hi] = y[2] + 1j * y[5]
    return -math.sqrt(params.kappa2) * np.array([a2[t] for t in t_grid])


def _window():
    """A pulse, and couplings (4, 3) on only between 16.2 and 16.8 of 32 equal spans of its window."""
    p_in = gaussian_pulse(0.2, 1.0, 1024)
    params = SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=0.001)
    t_end = p_in.times[-1]
    a, b = 16.2 * t_end / 32, 16.8 * t_end / 32
    schedule = PiecewiseLinearSchedule(
        (0.0, a, a + 0.01, b - 0.01, b, t_end + 0.01), (0, 0, 4.0, 4.0, 0, 0), (0, 0, 3.0, 3.0, 0, 0)
    )
    return p_in, params, schedule


def test_transmit_pulse_time_sees_coupling_window_between_probes():
    # 0.01-long ramps inside single grid intervals; panels split at the four kinks
    p_in, params, schedule = _window()
    got = transmit_pulse_time(p_in, params, schedule).amplitudes
    # measured: 5.8e-12 of the peak from DOP853 (5.8e-12 from _exact_output too); a 3.4x margin
    assert np.abs(got - _dop853_output(p_in, params, schedule)).max() < 2e-11 * np.abs(p_in.amplitudes).max()


def test_transmit_pulse_time_refines_where_a_smooth_ramp_needs_it():
    # g0 dt = 1 on a tanh ramp: one Magnus-6 panel per interval is 5.5e-7 of the peak off,
    # so only the step-doubling estimate's extra panels bring the output within 2.5e-10
    # (measured: 7.6e-11 of the peak from DOP853; a 3.3x margin)
    p_in = gaussian_pulse(0.2, 1.0, 512)
    params = SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=0.001)
    t_end = p_in.times[-1]
    schedule = TanhRampSchedule(g_max=1.0 / p_in.dt, center=0.45 * t_end, width=0.5, duration=t_end)
    got = transmit_pulse_time(p_in, params, schedule).amplitudes
    assert np.abs(got - _dop853_output(p_in, params, schedule)).max() < 2.5e-10 * np.abs(p_in.amplitudes).max()


def _exact_output(p_in, params, schedule, ramp_splits=2000):
    """-sqrt(k2) <a2> under a PiecewiseLinearSchedule, one exponential per constant sub-interval.

    The grid holds the samples and the breakpoints, and each piece whose
    couplings change is split into ramp_splits sub-intervals that take the
    couplings at their midpoints.  Over a sub-interval of length h the state
    (<v>, u, u') with u the drive, linear between samples, moves by
    exp(h [[-i M, sqrt(k1) e_1, 0], [0, 0, 1], [0, 0, 0]]), which is exact
    for constant couplings.  The midpoint couplings' error falls as
    ramp_splits^-2: 200 splits are 6e-12 of the peak from 2,000 on
    engineer_step, and 2,000 are 2e-13 from 8,000.
    """
    t_grid, u = p_in.times, p_in.amplitudes
    times, g1, g2 = (np.array(f) for f in (schedule.times, schedule.g1_values, schedule.g2_values))
    ramps = (np.diff(g1) != 0) | (np.diff(g2) != 0)
    splits = [np.linspace(a, b, ramp_splits + 1) for a, b in zip(times[:-1][ramps], times[1:][ramps])]
    grid = np.unique(np.concatenate([t_grid, times, *splits]))
    grid = grid[grid <= t_grid[-1]]
    drive = np.interp(grid, t_grid, u.real) + 1j * np.interp(grid, t_grid, u.imag)
    z = np.zeros((grid.size - 1, 5, 5), dtype=complex)
    couplings = zip(*schedule.values(0.5 * (grid[1:] + grid[:-1])))
    z[:, :3, :3] = -1j * np.array([closed_form_m(params, g1, g2) for g1, g2 in couplings])
    z[:, 0, 3], z[:, 3, 4] = math.sqrt(params.kappa1), 1.0
    maps = expm(np.diff(grid)[:, None, None] * z)
    y, a2 = np.zeros(3, dtype=complex), [0j]
    for e, start, slope in zip(maps, drive, np.diff(drive) / np.diff(grid)):
        y = e[:3, :3] @ y + e[:3, 3] * start + e[:3, 4] * slope
        a2.append(y[2])
    return -math.sqrt(params.kappa2) * np.array(a2)[np.isin(grid, t_grid)]


def _engineer_step():
    """The input pulse, params and schedule of scenarios/engineer_step.cfg."""
    config = parse_config((Path(__file__).resolve().parents[1] / "scenarios" / "engineer_step.cfg").read_text())
    p_in = gaussian_pulse(config.sigma_omega, config.pulse_amplitude, config.pulse_points)
    return p_in, config.params, config.schedule


def test_transmit_pulse_time_matches_the_exact_oracle_on_engineer_step():
    # measured: 2.0e-11 of the input peak; a 3x margin
    p_in, params, schedule = _engineer_step()
    got = transmit_pulse_time(p_in, params, schedule).amplitudes
    assert np.abs(got - _exact_output(p_in, params, schedule)).max() < 6e-11 * np.abs(p_in.amplitudes).max()


@pytest.mark.parametrize(
    "case,oracle,bound", [(_engineer_step, _exact_output, 6e-11), (_window, _dop853_output, 2e-11)]
)
def test_pulse_oracle_bounds_catch_a_scaled_sqrt_kappa1(case, oracle, bound):
    # sqrt(kappa1) scaled by 1 + 1e-4 moves the output about 4e-5 of the peak
    p_in, params, schedule = case()
    scaled = dataclasses.replace(params, kappa1=params.kappa1 * (1.0 + 1e-4) ** 2)
    got = transmit_pulse_time(p_in, scaled, schedule).amplitudes
    assert np.abs(got - oracle(p_in, params, schedule)).max() > bound * np.abs(p_in.amplitudes).max()


def test_transmit_pulse_time_takes_one_panel_per_constant_piece():
    calls = []

    class Counted(ConstantCoupling):
        def values(self, t):
            calls.append(np.shape(t))
            return super().values(t)

    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.2, n_points=1024)
    transmit_pulse_time(p_in, params, Counted(4.0, 3.0))
    # one call for the 1- and 2-panel maps of all 1023 intervals, all accepted at one panel
    assert calls == [(3 * 1023, 3)]


def test_transmit_pulse_time_caps_its_panels():
    # g0 dt near 60 everywhere: after the first estimate, 1023 open intervals ask for more than 2^16 panels
    p_in = gaussian_pulse(0.2, n_points=1024)
    t_end = p_in.times[-1]
    fast = TanhRampSchedule(g_max=1e3, center=0.5 * t_end, width=t_end, duration=t_end)
    with pytest.raises(TransmissionError, match="more than 65536 panels"):
        transmit_pulse_time(p_in, fig2_params(0.064, 0.032), fast)


def test_fft_transmission_of_a_real_pulse_is_real(tmp_path):
    config = Path(__file__).resolve().parents[1] / "scenarios" / "fig2b.cfg"
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    outputs = sorted(tmp_path.glob("fig2b_*_out.csv"))
    assert len(outputs) == 5
    for path in outputs:
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        assert rows[0] == ["t", "re", "im", "abs"]
        assert {row[2] for row in rows[1:]} == {"0"}, path.name
    # the filter is complex-linear: real and imaginary parts are filtered alike
    p_in = gaussian_pulse(0.04 * G0)
    params = fig2_params(0.064, 0.032)
    out = transmit_pulse_freq(p_in, params, 4.0, 3.0).amplitudes
    rotated = transmit_pulse_freq(Pulse(p_in.times, 1j * p_in.amplitudes), params, 4.0, 3.0).amplitudes
    assert np.array_equal(rotated, 1j * out)


def test_time_domain_transmission_of_a_real_pulse_is_real(tmp_path):
    config = Path(__file__).resolve().parents[1] / "scenarios" / "engineer_step.cfg"
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "engineer_step_out.csv").read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ["t", "re", "im", "abs"]
    assert {row[2] for row in rows[1:]} == {"0"}
    # the maps are real, so real and imaginary parts are carried alike, kinks and refined pieces included
    p_in = gaussian_pulse(0.2, 1.0, 512)
    t_end = p_in.times[-1]
    params = SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=0.001)
    ramp = TanhRampSchedule(g_max=1.0 / p_in.dt, center=0.45 * t_end, width=0.5, duration=t_end)
    step = PiecewiseLinearSchedule((0.0, 0.4 * t_end, 0.4 * t_end + 0.01, t_end), (0, 0, 4.0, 4.0), (0, 0, 3.0, 3.0))
    for schedule in (ramp, step):
        out = transmit_pulse_time(p_in, params, schedule).amplitudes
        assert np.all(out.imag == 0.0) and np.abs(out).max() > 0.1
        rotated = transmit_pulse_time(Pulse(p_in.times, 1j * p_in.amplitudes), params, schedule).amplitudes
        assert np.array_equal(rotated, 1j * out)
