"""Acceptance gate: the eight headline checks at their pinned tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
failure output) and then asserts.  Checks 1, 4 and 5 compare the paper's
targets with the quantity the program defines, and each also pins that
quantity to an exact oracle built here from the parameters alone:

* check 1: ``pulse_fidelity`` is the squared normalized overlap Fp.  The
  paper's 0.97 / 0.77 match its modulus sqrt(Fp): 0.9710 / 0.7564 at the
  damping pair (0.064, 0.032) g0, 0.9738 / 0.7683 at the impedance-matched
  pair (0.064, 0.036) g0, whose amplitude half-width 0.0399 g0 is the
  "0.04 g0" of check 3.  Fp itself (0.943 / 0.572) is pinned to a
  frequency-domain quadrature of the same overlap.  Doubling every damping
  rate does not explain the targets: it gives 0.984 / 0.780 and moves the
  half-width to 0.075 g0, against checks 2 and 3.  The repository holds
  only the paper's abstract, so it does not settle the paper's own Fp
  formula or which damping pair its Fig. 2c/d uses.
* checks 4 and 5: the Fig. 1 ramp (amplitude 5, duration pi/2) has
  adiabaticity 0.2.  At kappa = 0 it is a constant-coefficient problem in
  the frame co-rotating with the couplings, which gives the transferred
  amplitude D(T) = 0.95558 and the mechanical-noise occupation it leaves in
  cavity 2 in closed form.  Check 4 compares with the first-order fidelity
  whose mean ratio carries D(T); check 5 adds that noise occupation to the
  damping-induced bound fs.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from omtransfer.adiabatic import analytic_fidelity, fs_bound
from omtransfer.gaussian import (
    SingleModeGaussian,
    embed_initial,
    fock_oracle_fidelity,
    gaussian_fidelity,
    integrate,
    make_squeezed_coherent,
    reduce_to_mode,
)
from omtransfer.model import ConstantCoupling, SystemParams, TrigSchedule, drift_stack
from omtransfer.spectral import dark_mode_exact, dark_mode_perturbative, eigensystem
from omtransfer.transmission import (
    Pulse,
    gaussian_pulse,
    half_width,
    pulse_fidelity,
    t31_resonant,
    transmission_matrix,
    transmit_pulse_freq,
    transmit_pulse_time,
)

G0 = 5.0
FIG1 = TrigSchedule(5.0, math.pi / 2)
FIG2_PAIRS = [(0.096, 0.054), (0.064, 0.036), (0.032, 0.018), (0.0192, 0.032)]
TARGET_PAIR = (0.064, 0.032)


def fig2_params(pair):
    return SystemParams(kappa1=pair[0] * G0, kappa2=pair[1] * G0, gamma_m=2e-4 * G0)


def report(index, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {index} [{name}]: {status} ({detail}) [{elapsed:.2f}s < {budget}s]"
    print(line)
    assert elapsed < budget, f"runtime budget exceeded: {line}"
    assert ok, line


def _t31_solve(params, g1, g2, omega):
    """T31(omega) from a generic linear solve of (omega I - M) x = sqrt(K) e1."""
    m = np.array(
        [
            [-0.5j * params.kappa1, g1, 0.0],
            [g1, -0.5j * params.gamma_m, g2],
            [0.0, g2, -0.5j * params.kappa2],
        ]
    )
    drive = np.array([math.sqrt(params.kappa1), 0.0, 0.0], dtype=complex)
    x = np.linalg.solve(omega * np.eye(3) - m, drive)
    return -1j * math.sqrt(params.kappa2) * x[2]


def _pulse_fidelity_quadrature(params, g1, g2, sigma):
    """Squared normalized overlap of a Gaussian pulse of spectral width sigma with its output.

    By Parseval the time-domain overlap is the frequency-domain one with
    |a_in(w)|^2 ~ exp(-w^2 / sigma^2):

        Fp = |int w(x) T31(x) dx|^2 / (int w(x) dx * int w(x) |T31(x)|^2 dx).

    The weight is negligible beyond 12 sigma, and int w = sqrt(pi) sigma.
    """
    weight = lambda w: math.exp(-((w / sigma) ** 2))
    span = 12.0 * sigma
    opts = dict(epsabs=1e-15, epsrel=1e-12, limit=200)
    overlap = quad(
        lambda w: weight(w) * _t31_solve(params, g1, g2, w), -span, span,
        complex_func=True, **opts
    )[0]
    energy = quad(
        lambda w: weight(w) * abs(_t31_solve(params, g1, g2, w)) ** 2, -span, span, **opts
    )[0]
    return abs(overlap) ** 2 / (math.sqrt(math.pi) * sigma * energy)


def test_acceptance_1_pulse_fidelity_values():
    # The paper's 0.97 / 0.77 are overlap moduli, sqrt(Fp); pulse_fidelity is Fp.
    start = time.perf_counter()
    params = fig2_params(TARGET_PAIR)
    measured = {}
    oracle_err = 0.0
    for s_rel in (0.008, 0.04):
        p_in = gaussian_pulse(s_rel * G0)
        out = transmit_pulse_freq(p_in, params, 4.0, 3.0)
        measured[s_rel] = pulse_fidelity(p_in, out)
        oracle = _pulse_fidelity_quadrature(params, 4.0, 3.0, s_rel * G0)
        oracle_err = max(oracle_err, abs(measured[s_rel] - oracle))
    # also record the matched pair used by the other three damping sets
    params_alt = fig2_params((0.064, 0.036))
    recorded = {}
    for s_rel in (0.008, 0.04):
        p_in = gaussian_pulse(s_rel * G0)
        recorded[s_rel] = pulse_fidelity(
            p_in, transmit_pulse_freq(p_in, params_alt, 4.0, 3.0)
        )
    elapsed = time.perf_counter() - start
    modulus = {s: math.sqrt(fp) for s, fp in measured.items()}
    ok = (
        abs(modulus[0.008] - 0.97) <= 0.02
        and abs(modulus[0.04] - 0.77) <= 0.03
        and oracle_err <= 1e-9
    )
    detail = (
        f"sqrt(Fp)(0.008 g0)={modulus[0.008]:.4f} (Fp={measured[0.008]:.4f}) vs 0.97+-0.02, "
        f"sqrt(Fp)(0.04 g0)={modulus[0.04]:.4f} (Fp={measured[0.04]:.4f}) vs 0.77+-0.03; "
        f"Fp vs quadrature oracle {oracle_err:.1e} (<= 1e-9); "
        f"matched pair (0.064, 0.036) gives sqrt(Fp) "
        f"{math.sqrt(recorded[0.008]):.4f}, {math.sqrt(recorded[0.04]):.4f} "
        f"(Fp {recorded[0.008]:.4f}, {recorded[0.04]:.4f})"
    )
    report(1, "pulse-fidelity targets", ok, detail, elapsed, 5.0)


def test_acceptance_2_resonant_transmission():
    start = time.perf_counter()
    res = t31_resonant(fig2_params((0.064, 0.036)), 4.0, 3.0)
    unit_ok = abs(res.value - 1.0) <= 1e-5 and res.optimal
    worst_rel = 0.0
    for pair in FIG2_PAIRS:
        params = fig2_params(pair)
        t31 = abs(transmission_matrix(params, 4.0, 3.0, 0.0)[2, 0])
        closed = t31_resonant(params, 4.0, 3.0).value
        worst_rel = max(worst_rel, abs(t31 - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = unit_ok and worst_rel <= 1e-12
    detail = f"T31(0)={res.value:.8f}, matrix-vs-closed-form rel err {worst_rel:.2e}"
    report(2, "resonant transmission", ok, detail, elapsed, 1.0)


def test_acceptance_3_half_width():
    start = time.perf_counter()
    worst_rel = 0.0
    for pair in FIG2_PAIRS:
        analytic, numeric = half_width(fig2_params(pair), 4.0, 3.0)
        worst_rel = max(worst_rel, abs(analytic - numeric) / numeric)
    analytic_target, _ = half_width(fig2_params(TARGET_PAIR), 4.0, 3.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst_rel < 0.05
        and abs(analytic_target / G0 - 0.0377) <= 5e-5
        and abs(analytic_target / G0 - 0.04) / 0.04 < 0.07
    )
    detail = (
        f"numeric-vs-analytic worst rel {worst_rel:.3%}, "
        f"target-pair analytic {analytic_target / G0:.5f} g0 vs expected 0.04"
    )
    report(3, "transmission half-width", ok, detail, elapsed, 1.0)


def _conversion(params, schedule, duration, alpha=1.0, r=0.0):
    """(fidelity of cavity 2 with the input, final three-mode state)."""
    initial = make_squeezed_coherent(alpha, r, 0.0)
    traj = integrate(embed_initial(initial, 0.0), params, schedule, duration)
    return gaussian_fidelity(initial, reduce_to_mode(traj.final, 3)), traj.final


def _ramp_frame(schedule):
    """(gap g0, rotation rate theta', Omega) of a TrigSchedule at kappa = 0.

    In the frame of the dark mode d = -cos(th) a1 - sin(th) a2, the bright
    mode b = sin(th) a1 - cos(th) a2 and the mechanics bm, with
    th = theta' t, the lossless mean equations have constant coefficients:

        d' = theta' b,   b' = -theta' d - i g0 bm,   bm' = -i g0 b,

    so b'' = -Omega^2 b with Omega = sqrt(g0^2 + theta'^2).  At t = T,
    a2 = -d.
    """
    gap = schedule.amplitude
    rate = math.pi / (2.0 * schedule.duration)
    return gap, rate, math.hypot(gap, rate)


def _ramp_transfer_amplitude(schedule):
    """Exact lossless <a2(T)> / <a1(0)> of the trig ramp.

    D(T) = (g0^2 + theta'^2 cos Omega T) / Omega^2, from b = theta' sin(Omega t) / Omega.
    """
    gap, rate, omega = _ramp_frame(schedule)
    return (gap**2 + rate**2 * math.cos(omega * schedule.duration)) / omega**2


def _ramp_noise_occupation(params, schedule):
    """Exact cavity-2 occupation the mechanical bath adds over the lossless trig ramp.

    A unit mechanical amplitude at time s reaches a2(T) with the amplitude
    i g0 theta' (1 - cos Omega (T - s)) / Omega^2, and the bath feeds the
    normal-ordered moments at the rate gamma_m n_th, so

        n = gamma_m n_th (g0 theta' / Omega^2)^2
            [3T/2 - 2 sin(Omega T) / Omega + sin(2 Omega T) / 4 Omega].
    """
    gap, rate, omega = _ramp_frame(schedule)
    T = schedule.duration
    window = (
        1.5 * T
        - 2.0 * math.sin(omega * T) / omega
        + math.sin(2.0 * omega * T) / (4.0 * omega)
    )
    return params.gamma_m * params.n_th * (gap * rate / omega**2) ** 2 * window


def test_acceptance_4_adiabatic_conversion():
    # F1 F2 assumes the adiabatic limit; the Fig. 1 ramp keeps the exact
    # nonadiabatic transfer amplitude D(T), so the first-order prediction is
    # F1 (1 - |alpha|^2 |1 - D exp(-f)|^2), equal to F1 F2 to O(f^3) when D = 1.
    start = time.perf_counter()
    alpha = 1.0
    transfer = _ramp_transfer_amplitude(FIG1)
    _, lossless = _conversion(SystemParams(kappa1=0.0, kappa2=0.0), FIG1, math.pi / 2, alpha)
    amp_err = abs(lossless.mean[2] - transfer * alpha)
    failures = []
    details = []
    for k1 in (0.05, 0.1, 0.2, 0.5):
        params = SystemParams(kappa1=k1, kappa2=0.0)
        f_num, _ = _conversion(params, FIG1, math.pi / 2, alpha)
        with np.errstate(all="ignore"):
            rep = _quiet_analytic(params)
        f_first = rep.F1 * (1.0 - abs(alpha) ** 2 * abs(1.0 - transfer * rep.mean_ratio) ** 2)
        diff = abs(f_num - f_first)
        tol = 2.0 * rep.f0T**2
        details.append(f"k1={k1}: |dF|={diff:.2e} tol={tol:.2e}")
        if diff > tol:
            failures.append(k1)
    slow = TrigSchedule(5.0, 5 * math.pi)
    f_slow, _ = _conversion(SystemParams(kappa1=0.0, kappa2=0.0), slow, 5 * math.pi)
    infid = 1.0 - f_slow
    slow_ok = infid < 1e-3
    elapsed = time.perf_counter() - start
    ok = not failures and slow_ok and amp_err <= 1e-9
    detail = (
        f"kappa=0 <a2(T)> vs D(T)={transfer:.13f}: {amp_err:.1e} (<= 1e-9); "
        + "; ".join(details)
        + f"; 10x-slow infidelity {infid:.2e}"
    )
    report(4, "adiabatic conversion vs first-order fidelity", ok, detail, elapsed, 30.0)


def _quiet_analytic(params):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return analytic_fidelity(1.0, 0.0, 0.0, params, FIG1, math.pi / 2)


def test_acceptance_5_thermal_noise_immunity():
    start = time.perf_counter()
    # fs covers only the damping-induced mechanical admixture, zero at
    # kappa1 = kappa2; the ramp's nonadiabatic admixture adds fs_na, exact at kappa = 0.
    duration = math.pi / 2
    noisy_tpl = dict(kappa2=0.0, gamma_m=2e-4, n_th=100.0)
    fs_na = _ramp_noise_occupation(SystemParams(kappa1=0.0, **noisy_tpl), FIG1)
    failures = []
    bound_at_1 = None
    occupation = None
    worst_ratio = 0.0
    for r in (0.0, 0.4):
        for k1 in (0.0, 0.25, 0.5, 0.75, 1.0):
            quiet = SystemParams(kappa1=k1, kappa2=0.0)
            noisy = SystemParams(kappa1=k1, **noisy_tpl)
            f_quiet, s_quiet = _conversion(quiet, FIG1, duration, r=r)
            f_noisy, s_noisy = _conversion(noisy, FIG1, duration, r=r)
            fs = fs_bound(noisy, FIG1, duration)
            bound = 3.0 * (fs + fs_na) * math.cosh(2.0 * r)
            delta = abs(f_quiet - f_noisy)
            worst_ratio = max(worst_ratio, delta / bound)
            if k1 == 1.0 and r == 0.0:
                bound_at_1 = 3.0 * fs
            if k1 == 0.0 and r == 0.0:
                occupation = (s_noisy.normal[2, 2] - s_quiet.normal[2, 2]).real
            if delta > bound:
                failures.append((r, k1, delta, bound))
    bound_sane = bound_at_1 is not None and abs(bound_at_1 - 4.7e-4) < 0.1e-4
    occ_err = abs(occupation - fs_na) / fs_na
    elapsed = time.perf_counter() - start
    ok = not failures and bound_sane and occ_err <= 1e-3
    detail = (
        f"3 fs(k1=1, r=0)={bound_at_1:.3e} (expected ~4.7e-4); "
        f"kappa=0 added occupation {occupation:.5e} vs fs_na={fs_na:.5e}, "
        f"rel err {occ_err:.1e} (<= 1e-3); worst dF/bound {worst_ratio:.2f}; "
        + (
            f"{len(failures)} point(s) exceed the bound, first: r={failures[0][0]}, "
            f"k1={failures[0][1]}, dF={failures[0][2]:.2e} > {failures[0][3]:.2e}"
            if failures
            else "all points within the bound"
        )
    )
    report(5, "thermal-noise immunity", ok, detail, elapsed, 60.0)


def _random_physical_state(rng):
    while True:
        alpha = rng.uniform(-math.sqrt(2), math.sqrt(2)) + 1j * rng.uniform(
            -math.sqrt(2), math.sqrt(2)
        )
        r = rng.uniform(0.0, 0.8)
        phi = rng.uniform(0.0, math.pi)
        nu = 1.0 + 2.0 * rng.uniform(0.0, 1.2)
        n_ex = (nu * math.cosh(2.0 * r) - 1.0) / 2.0
        if abs(alpha) <= 2.0 and n_ex <= 3.0:
            m_an = -np.exp(2j * phi) * nu * math.sinh(2.0 * r) / 2.0
            return SingleModeGaussian(mean=alpha, n_ex=n_ex, m_an=m_an)


def test_acceptance_6_fidelity_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        s1 = _random_physical_state(rng)
        s2 = _random_physical_state(rng)
        worst = max(worst, abs(gaussian_fidelity(s1, s2) - fock_oracle_fidelity(s1, s2)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6
    report(
        6,
        "Gaussian fidelity vs Fock oracle",
        ok,
        f"worst |dF| = {worst:.2e} over 50 random state pairs",
        elapsed,
        60.0,
    )


def test_acceptance_7_spectral_properties():
    start = time.perf_counter()
    es = eigensystem(drift_stack(SystemParams(kappa1=0.0, kappa2=0.0).damping_diagonal, 3.0, 4.0))
    spectrum_err = max(
        abs(got - want) for got, want in zip(sorted(es.lambdas, key=lambda z: z.real), (-5.0, 0.0, 5.0))
    )
    rng = np.random.default_rng(77)
    worst_lam, worst_vec = 0.0, 0.0
    for _ in range(40):
        g1, g2 = rng.uniform(0.5, 5.0, size=2)
        g0 = math.hypot(g1, g2)
        k1, k2, gm = rng.uniform(0.0, 0.1 * g0, size=3)
        ratio = max(k1, k2, gm) / g0
        params = SystemParams(kappa1=k1, kappa2=k2, gamma_m=gm)
        pert = dark_mode_perturbative(params, g1, g2)
        exact = dark_mode_exact(drift_stack(params.damping_diagonal, g1, g2))
        lam_err = abs(pert.lambda1 - exact.lambda1) / (ratio**2 * g0 + 1e-300)
        vec_err = np.linalg.norm(pert.vector - exact.vector) / (ratio**2 + 1e-300)
        worst_lam = max(worst_lam, lam_err)
        worst_vec = max(worst_vec, vec_err)
    elapsed = time.perf_counter() - start
    ok = spectrum_err <= 1e-12 * G0 and worst_lam < 5.0 and worst_vec < 5.0
    detail = (
        f"zero-damping spectrum err {spectrum_err:.2e}, "
        f"second-order coefficients: lambda {worst_lam:.2f}, vector {worst_vec:.2f} (< 5)"
    )
    report(7, "spectral properties", ok, detail, elapsed, 1.0)


def test_acceptance_8_cross_domain_consistency():
    start = time.perf_counter()
    params = fig2_params(TARGET_PAIR)
    worst = 0.0
    for s_rel in (0.008, 0.04):
        p_in = gaussian_pulse(s_rel * G0)
        out_f = transmit_pulse_freq(p_in, params, 4.0, 3.0)
        n = p_in.times.size
        amps = np.zeros(4 * n, dtype=complex)
        amps[:n] = p_in.amplitudes
        padded = Pulse(times=out_f.times.copy(), amplitudes=amps)
        out_t = transmit_pulse_time(padded, params, ConstantCoupling(4.0, 3.0))
        rel = np.linalg.norm(out_t.amplitudes - out_f.amplitudes) / np.linalg.norm(
            out_f.amplitudes
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3
    report(
        8,
        "time vs frequency domain",
        ok,
        f"worst relative L2 difference {worst:.2e}",
        elapsed,
        10.0,
    )
