import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from omtransfer.model import ConstantCoupling, PiecewiseLinearSchedule, SystemParams
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


def closed_form_t31(params, g1, g2, omega):
    # independent evaluation via the generic linear solve
    m = np.array(
        [
            [-0.5j * params.kappa1, g1, 0.0],
            [g1, -0.5j * params.gamma_m, g2],
            [0.0, g2, -0.5j * params.kappa2],
        ]
    )
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


@pytest.mark.parametrize("pair", FIG2_PAIRS)
def test_half_width_numeric_vs_analytic(pair):
    analytic, numeric = half_width(fig2_params(*pair), 4.0, 3.0)
    assert abs(analytic - numeric) / numeric < 0.05


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
    assert rel < 1e-3


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
    # at sigma 0.15 the last substep's end time rounds to one ulp past t_end
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


def test_pulse_spectrum_width_and_scale():
    sigma = 0.2
    p = gaussian_pulse(sigma)
    omegas, amps = p.spectrum()
    weights = np.abs(amps) ** 2
    mean_w = np.sum(omegas * weights) / weights.sum()
    std_w = math.sqrt(np.sum((omegas - mean_w) ** 2 * weights) / weights.sum())
    assert abs(mean_w) < 1e-9
    # amplitude spectrum has std sigma, hence the power spectrum sigma/sqrt(2)
    assert std_w == pytest.approx(sigma / math.sqrt(2.0), rel=1e-3)
    # transform convention: peak value is 1/sigma for the unit-amplitude pulse
    assert np.abs(amps).max() == pytest.approx(1.0 / sigma, rel=1e-6)


def test_transmission_report_fields():
    from omtransfer.transmission import transmission_report

    params = fig2_params(0.064, 0.032)
    p_in = gaussian_pulse(0.2)
    p_out = transmit_pulse_freq(p_in, params, 4.0, 3.0)
    rep = transmission_report(params, 4.0, 3.0, p_in, p_out)
    assert 0.0 < rep.pulse_fidelity <= 1.0
    assert rep.half_width_numeric > 0.0
    assert rep.t31_resonant == pytest.approx(
        t31_resonant(params, 4.0, 3.0).value
    )
    assert rep.half_width_analytic == pytest.approx(
        half_width(params, 4.0, 3.0)[0]
    )


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
