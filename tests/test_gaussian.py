import math
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from omtransfer import gaussian, model
from omtransfer.gaussian import (
    GaussianError,
    PhysicalityError,
    SingleModeGaussian,
    ThreeModeGaussianState,
    embed_initial,
    fock_oracle_fidelity,
    gaussian_fidelity,
    integrate,
    integrate_batch,
    make_squeezed_coherent,
    reduce_to_mode,
)
from omtransfer.model import (
    ConstantCoupling,
    PiecewiseLinearSchedule,
    SystemParams,
    TrigSchedule,
    drift_stack,
    dynamic_matrix_at,
)

_OMEGA_6 = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))

FIG1 = TrigSchedule(5.0, math.pi / 2)


# -- independent Fock-space oracle for the squeezing convention --------------

def _ladder(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.conj().T


def _squeezed_coherent_ket(alpha, r, phi, dim=140):
    a, ad = _ladder(dim)
    eps = r * np.exp(2j * phi)
    squeeze = expm((np.conj(eps) * (a @ a) - eps * (ad @ ad)) / 2.0)
    disp = expm(alpha * ad - np.conj(alpha) * a)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    return disp @ (squeeze @ vac)


@pytest.mark.parametrize(
    "alpha,r,phi",
    [(1.0, 0.4, 0.0), (0.5 + 0.3j, 0.6, 0.7), (0.0, 0.3, 1.2)],
)
def test_squeezed_coherent_moments_match_fock_construction(alpha, r, phi):
    psi = _squeezed_coherent_ket(alpha, r, phi)
    a, ad = _ladder(psi.size)
    mean = psi.conj() @ (a @ psi)
    n_ex = (psi.conj() @ (ad @ a @ psi)).real - abs(mean) ** 2
    m_an = psi.conj() @ (a @ a @ psi) - mean**2
    state = make_squeezed_coherent(alpha, r, phi)
    assert state.mean == pytest.approx(mean, abs=1e-9)
    assert state.n_ex == pytest.approx(n_ex, abs=1e-9)
    assert state.m_an == pytest.approx(m_an, abs=1e-9)


def test_coherent_state_moments():
    s = make_squeezed_coherent(1.0, 0.0, 0.0)
    assert (s.mean, s.n_ex, s.m_an) == (1.0, 0.0, 0.0)


def test_squeezed_magnitudes():
    s = make_squeezed_coherent(1.0, 0.4, 0.0)
    assert s.n_ex == pytest.approx(math.sinh(0.4) ** 2, abs=1e-12)
    assert s.n_ex == pytest.approx(0.16869, abs=5e-5)
    assert abs(s.m_an) == pytest.approx(0.44405, abs=5e-6)


def test_purity_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r, phi = rng.uniform(0.0, 1.2), rng.uniform(0.0, math.pi)
        s = make_squeezed_coherent(0.3, r, phi)
        assert s.n_ex * (s.n_ex + 1.0) == pytest.approx(abs(s.m_an) ** 2, abs=1e-12)


def test_unphysical_moments_rejected():
    with pytest.raises(PhysicalityError):
        SingleModeGaussian(mean=0.0, n_ex=0.1, m_an=1.0)
    with pytest.raises(GaussianError):
        SingleModeGaussian(mean=0.0, n_ex=-0.5, m_an=0.0)


@pytest.mark.parametrize("moments", [(0j, math.nan, 0j), (math.inf, 0.0, 0j), (0j, 0.0, complex(0.0, math.nan))])
def test_single_mode_moments_must_be_finite(moments):
    with pytest.raises(GaussianError, match="moments must be finite"):
        SingleModeGaussian(*moments)


@pytest.mark.parametrize("r", [356.0, 400.0, 711.0])
def test_squeezing_past_a_finite_occupation_is_rejected(r):
    # sinh^2 r overflows a float past r = 355.6; math.sinh itself past r = 710.5
    with pytest.raises(GaussianError, match=f"squeezing r = {r} is out of range"):
        make_squeezed_coherent(0.0, r)


@pytest.mark.parametrize("r", [178.0, 200.0, 300.0, 355.0])
def test_extreme_squeezing_builds_without_overflow(r):
    # |m|^2 overflows past r = 178, but the defect never squares |m|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = make_squeezed_coherent(0.0, r, 0.3)
        embed_initial(s, 0.0)
    assert math.isfinite(s.n_ex) and math.isfinite(abs(s.m_an))


def test_squeezing_whose_uncertainty_scale_overflows_is_rejected():
    # sinh^2 355.5 = 1.5e308 is finite, cosh 711 = 2 sinh^2 r + 1 is not
    assert math.isfinite(math.sinh(355.5) ** 2)
    with pytest.raises(GaussianError, match=r"squeezing r = 355.5 is out of range: cosh 2r"):
        make_squeezed_coherent(0.0, 355.5)


@pytest.mark.parametrize("r", [0.5, 5.0, 178.0, 300.0, 355.0])
def test_anomalous_moment_one_percent_past_the_bound_is_rejected(r):
    sq = make_squeezed_coherent(0.0, r, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhysicalityError, match=r"n\(n\+1\) < \|m\|\^2"):
            SingleModeGaussian(mean=0.0, n_ex=sq.n_ex, m_an=sq.m_an * 1.01)


def test_strongly_squeezed_states_are_physical():
    # n(n+1) = |m|^2 for a pure squeezed state, and their rounding grows as n^2:
    # an absolute 1e-10 tolerance rejects 259 of these, the first at r = 3.81
    for r in np.arange(0.0, 6.0, 0.01):
        for phi in (0.0, 0.3, 1.1):
            embed_initial(make_squeezed_coherent(1.0, float(r), phi), 0.0)
    # the relative tolerance still rejects a relative shift of 1e-6 from the boundary
    sq = make_squeezed_coherent(0.0, 5.0, 0.3)
    with pytest.raises(PhysicalityError):
        SingleModeGaussian(mean=0.0, n_ex=sq.n_ex * (1.0 - 1e-6), m_an=sq.m_an)


def test_embed_initial():
    vac = make_squeezed_coherent(0.0, 0.0, 0.0)
    st = embed_initial(vac, 0.0)
    assert_allclose(st.mean, np.zeros(3), atol=0.0)
    assert_allclose(st.normal, np.zeros((3, 3)), atol=0.0)
    assert_allclose(st.anomalous, np.zeros((3, 3)), atol=0.0)

    coh = make_squeezed_coherent(1.0, 0.0, 0.0)
    st = embed_initial(coh, 100.0)
    assert_allclose(st.mean, [1.0, 0.0, 0.0], atol=0.0)
    assert_allclose(st.normal, np.diag([0.0, 100.0, 0.0]), atol=0.0)

    sq = make_squeezed_coherent(1.0, 0.4, 0.0)
    st = embed_initial(sq, 0.0)
    assert st.normal[0, 0] == pytest.approx(sq.n_ex)
    assert st.anomalous[0, 0] == pytest.approx(sq.m_an)


def test_integrate_mechanical_relaxation():
    # uncoupled mechanics relaxes to its bath: n(t) = n_th + (n0 - n_th) e^{-gamma_m t}
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.5, n_th=3.0)
    n0 = 1.25
    st = ThreeModeGaussianState(
        mean=np.zeros(3), normal=np.diag([0.0, n0, 0.0]), anomalous=np.zeros((3, 3))
    )
    traj = integrate(st, p, ConstantCoupling(0.0, 0.0), 4.0, n_samples=21)
    got = [s.normal[1, 1].real for s in traj.states]
    assert_allclose(got, 3.0 + (n0 - 3.0) * np.exp(-0.5 * traj.times), rtol=1e-12)


def test_integrate_conserves_excitation_without_damping():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    st = embed_initial(make_squeezed_coherent(1.0, 0.4, 0.3), 2.0)
    traj = integrate(st, p, FIG1, FIG1.duration, n_samples=21)
    traces = [np.trace(s.normal).real for s in traj.states]
    assert_allclose(traces, np.trace(st.normal).real, rtol=1e-12)


def test_integrate_decoupled_decay():
    # with no coupling <a1> decays as alpha0 e^{-kappa1 t / 2}
    p = SystemParams(kappa1=0.3, kappa2=0.0)
    st = embed_initial(make_squeezed_coherent(2.0, 0.0, 0.0), 0.0)
    traj = integrate(st, p, ConstantCoupling(0.0, 0.0), 4.0, n_samples=21)
    got = [s.mean[0] for s in traj.states]
    assert_allclose(got, 2.0 * np.exp(-0.15 * traj.times), rtol=1e-12, atol=0.0)


def test_integrate_cavity_decay():
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    traj = integrate(st0, p, ConstantCoupling(0.0, 0.0), 5.0)
    assert abs(traj.final.mean[0]) == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_integrate_thermal_relaxation():
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.1, n_th=2.0)
    st0 = embed_initial(make_squeezed_coherent(0.0, 0.0, 0.0), 0.0)
    traj = integrate(st0, p, ConstantCoupling(0.0, 0.0), 200.0)
    assert traj.final.normal[1, 1].real == pytest.approx(2.0, abs=1e-6)


def test_integrate_adiabatic_transfer_converges():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    err_fast = abs(integrate(st0, p, FIG1, math.pi / 2).final.mean[2] - 1.0)
    assert err_fast <= 0.05
    slow = TrigSchedule(5.0, 5 * math.pi)
    err_slow = abs(integrate(st0, p, slow, 5 * math.pi).final.mean[2] - 1.0)
    assert err_slow < err_fast / 10


def test_trajectory_preserves_structure_and_excitation():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.4, 0.2), 1.5)
    traj = integrate(st0, p, FIG1, math.pi / 2)
    total0 = np.trace(st0.normal).real
    mean0 = float(np.sum(np.abs(st0.mean) ** 2))
    for st in traj.states:
        assert np.abs(st.normal - st.normal.conj().T).max() < 1e-9
        assert np.abs(st.anomalous - st.anomalous.T).max() < 1e-9
        assert np.trace(st.normal).real == pytest.approx(total0, abs=1e-9)
        assert float(np.sum(np.abs(st.mean) ** 2)) == pytest.approx(mean0, abs=1e-9)


def test_linearity_of_means():
    p = SystemParams(kappa1=0.1, kappa2=0.05)
    run = lambda alpha: integrate(
        embed_initial(make_squeezed_coherent(alpha, 0.0, 0.0), 0.0), p, FIG1, math.pi / 2
    ).final.mean
    m1 = run(1.0)
    m2 = run(0.5j)
    m12 = run(1.0 + 0.5j)
    assert_allclose(m1 + m2, m12, atol=1e-10)


def test_steady_state_decay_and_cooling():
    # n_th = 0: everything decays (slowest amplitude rate here is ~0.1)
    p = SystemParams(kappa1=0.4, kappa2=0.3, gamma_m=0.05, n_th=0.0)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.3, 0.0), 2.0)
    traj = integrate(st0, p, ConstantCoupling(2.0, 2.0), 160.0)
    final = traj.final
    assert np.abs(final.mean).max() < 1e-5
    assert np.abs(final.normal).max() < 1e-4

    # n_th > 0: mechanical occupation settles below n_th (sideband cooling)
    p = SystemParams(kappa1=0.4, kappa2=0.3, gamma_m=0.05, n_th=2.0)
    traj = integrate(st0, p, ConstantCoupling(2.0, 2.0), 120.0, n_samples=241)
    occ = np.array([st.normal[1, 1].real for st in traj.states])
    tail = occ[-40:]
    assert tail.max() < 2.0
    assert np.abs(np.diff(tail)).max() < 1e-4  # settled to a constant


def test_constant_coupling_reaches_the_lyapunov_steady_state():
    # H N + N H^+ + D = 0 with H = i M*, as one 9x9 system on row-major vec(N); the
    # slowest N transient decays as e^{-0.2 t}, to 1.3e-14 at T = 160 (measured 3.6e-14 off)
    p = SystemParams(kappa1=0.4, kappa2=0.3, gamma_m=0.05, n_th=2.0)
    schedule = ConstantCoupling(2.0, 2.0)
    h = 1j * dynamic_matrix_at(p, schedule, 0.0).conj()
    diffusion = np.diag([0.0, p.gamma_m * p.n_th, 0.0]).astype(complex)
    lyapunov = np.kron(h, np.eye(3)) + np.kron(np.eye(3), h.conj())
    steady = np.linalg.solve(lyapunov, -diffusion.ravel()).reshape(3, 3)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.3, 0.0), 2.0)
    final = integrate(st0, p, schedule, 160.0, n_samples=2).final
    assert_allclose(final.normal, steady, rtol=0.0, atol=1e-12)


def test_reduce_to_mode():
    s = make_squeezed_coherent(0.7, 0.4, 0.1)
    st = embed_initial(s, 100.0)
    back = reduce_to_mode(st, 1)
    assert back.mean == pytest.approx(s.mean)
    assert back.n_ex == pytest.approx(s.n_ex)
    assert back.m_an == pytest.approx(s.m_an)
    assert reduce_to_mode(st, 2).n_ex == pytest.approx(100.0)
    vac = reduce_to_mode(st, 3)
    assert (vac.mean, vac.n_ex, vac.m_an) == (0.0, 0.0, 0.0)
    with pytest.raises(GaussianError):
        reduce_to_mode(st, 0)


def test_gaussian_fidelity_reference_values():
    coh = make_squeezed_coherent(1.0, 0.0, 0.0)
    vac = make_squeezed_coherent(0.0, 0.0, 0.0)
    thermal = SingleModeGaussian(mean=0.0, n_ex=1.0, m_an=0.0)
    assert gaussian_fidelity(coh, coh) == pytest.approx(1.0, abs=1e-12)
    assert gaussian_fidelity(coh, vac) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert gaussian_fidelity(vac, thermal) == pytest.approx(0.5, abs=1e-12)


def test_gaussian_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(30):
        s1 = _random_state(rng)
        s2 = _random_state(rng)
        f12 = gaussian_fidelity(s1, s2)
        f21 = gaussian_fidelity(s2, s1)
        assert 0.0 <= f12 <= 1.0
        assert f12 == pytest.approx(f21, abs=1e-12)


def _random_state(rng, alpha_max=2.0, r_max=0.8, n_max=3.0):
    alpha = rng.uniform(-1, 1) * alpha_max / 2 + 1j * rng.uniform(-1, 1) * alpha_max / 2
    r = rng.uniform(0.0, r_max)
    phi = rng.uniform(0.0, math.pi)
    nu = 2.0 * rng.uniform(0.0, 1.0) + 1.0
    n_ex = (nu * math.cosh(2 * r) - 1.0) / 2.0
    if n_ex > n_max:
        return _random_state(rng, alpha_max, r_max * 0.5, n_max)
    m_an = -np.exp(2j * phi) * nu * math.sinh(2 * r) / 2.0
    return SingleModeGaussian(mean=alpha, n_ex=n_ex, m_an=m_an)


def test_fock_oracle_reference_values():
    vac = make_squeezed_coherent(0.0, 0.0, 0.0)
    assert fock_oracle_fidelity(vac, vac) == pytest.approx(1.0, abs=1e-10)
    # coherent overlap identity |<a|b>|^2 = exp(-|a-b|^2)
    c1 = make_squeezed_coherent(2.0, 0.0, 0.0)
    c2 = make_squeezed_coherent(2.0 * np.exp(1j * math.pi / 2), 0.0, 0.0)
    assert fock_oracle_fidelity(c1, c2, cutoff=64) == pytest.approx(math.exp(-8.0), abs=1e-7)


def test_fock_oracle_doubles_undersized_cutoff():
    # an explicit cutoff too small for the state is doubled until the
    # truncated matrices hold all but 1e-10 of the trace
    coh = make_squeezed_coherent(2.0, 0.0, 0.0)
    vac = make_squeezed_coherent(0.0, 0.0, 0.0)
    assert fock_oracle_fidelity(coh, vac, cutoff=16) == pytest.approx(
        math.exp(-4.0), abs=1e-7
    )


def test_fock_oracle_matches_gaussian_formula():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s1, s2 = _random_state(rng), _random_state(rng)
        assert fock_oracle_fidelity(s1, s2) == pytest.approx(
            gaussian_fidelity(s1, s2), abs=1e-6
        )


def test_physicality_error_during_integration():
    # bogus negative diffusion cannot arise from valid params, so instead
    # verify the validator itself trips on a crafted unphysical state
    bad_normal = np.diag([0.0, 0.0, 0.0]).astype(complex)
    bad_anom = np.zeros((3, 3), dtype=complex)
    bad_anom[0, 0] = 0.8  # |m| > 0 with n = 0 violates n(n+1) >= |m|^2
    with pytest.raises(PhysicalityError):
        ThreeModeGaussianState(mean=np.zeros(3), normal=bad_normal, anomalous=bad_anom)


def quadrature_covariance(normal, anomalous):
    """6x6 symmetrized quadrature covariance of (x1, p1, xm, pm, x2, p2) from the (N, A) blocks."""
    sigma = np.empty((6, 6))
    for j in range(3):
        for k in range(3):
            njk, ajk = normal[j, k], anomalous[j, k]
            delta = 1.0 if j == k else 0.0
            sigma[2 * j, 2 * k] = 2.0 * ajk.real + 2.0 * njk.real + delta
            sigma[2 * j + 1, 2 * k + 1] = -2.0 * ajk.real + 2.0 * njk.real + delta
            sigma[2 * j, 2 * k + 1] = 2.0 * ajk.imag + 2.0 * njk.imag
            sigma[2 * j + 1, 2 * k] = 2.0 * ajk.imag - 2.0 * njk.imag
    return sigma


def test_uncertainty_test_matches_quadrature_covariance():
    # the validator tests the (da, da^+) Gram matrix; it must accept exactly
    # the states whose quadrature covariance obeys sigma + i Omega >= 0
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(200):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        cases.append((0.3 * x @ x.conj().T, 0.4 * (y + y.T)))
    # a pure squeezed mode sits on the boundary; shift its occupation by 1e-6
    sq = make_squeezed_coherent(0.0, 0.5, 0.2)
    for shift in (1e-6, -1e-6):
        cases.append((np.diag([sq.n_ex + shift, 0.0, 0.0]), np.diag([sq.m_an, 0.0, 0.0])))
    outcomes = set()
    for normal, anomalous in cases:
        defect = np.linalg.eigvalsh(quadrature_covariance(normal, anomalous) + 1j * _OMEGA_6)[0]
        scale = max(1.0, np.abs(normal).max(), np.abs(anomalous).max())
        physical = defect >= -1e-8 * scale
        try:
            ThreeModeGaussianState(mean=np.zeros(3), normal=normal, anomalous=anomalous)
            accepted = True
        except PhysicalityError:
            accepted = False
        assert accepted == physical
        outcomes.add(physical)
    assert outcomes == {True, False}


def _first_fault_by_eigvalsh(mean, normal, anomalous):
    """gaussian._first_fault as it was before the Cholesky screen: eigvalsh on every row."""
    gram = np.empty((len(normal), 6, 6), dtype=complex)
    gram[:, :3, :3] = normal.swapaxes(1, 2) + np.eye(3)
    gram[:, :3, 3:] = anomalous
    gram[:, 3:, :3] = anomalous.conj()
    gram[:, 3:, 3:] = normal
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(gram).all(axis=(1, 2))
    gram[~finite] = 0.0
    scale = np.maximum(1.0, np.abs(gram[:, :, 3:]).max(axis=(1, 2)))
    asym = np.abs(gram - gram.conj().swapaxes(1, 2)) > 1e-8 * scale[:, None, None]
    defect = 2.0 * np.linalg.eigvalsh(gram)[:, 0]
    checks = (
        ("moments must be finite", ~finite),
        ("normal moment block must be Hermitian", asym[:, 3:, 3:].any(axis=(1, 2))),
        ("anomalous moment block must be symmetric", asym[:, :3, 3:].any(axis=(1, 2))),
        ("normal moments have a negative occupation",
         normal.real.diagonal(axis1=1, axis2=2).min(axis=1) < -1e-10 * scale),
        ("covariance violates the uncertainty relation", defect < -1e-8 * scale),
    )
    bad = np.array([fails for _, fails in checks])
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=0)))
    kind = int(np.argmax(bad[:, row]))
    message = checks[kind][0]
    if kind == len(checks) - 1:
        return row, PhysicalityError(f"{message} (defect {defect[row]:.3e})")
    return row, GaussianError(message)


def _stack(states):
    return [np.array([getattr(st, f) for st in states]) for f in ("mean", "normal", "anomalous")]


def _raw_state(n, m):
    """One-mode moments N = diag(n, 0, 0), A = diag(m, 0, 0), bypassing the constructor's check."""
    state = object.__new__(ThreeModeGaussianState)
    object.__setattr__(state, "mean", np.zeros(3, dtype=complex))
    object.__setattr__(state, "normal", np.diag([n, 0.0, 0.0]).astype(complex))
    object.__setattr__(state, "anomalous", np.diag([m, 0.0, 0.0]).astype(complex))
    return state


def _below_bound(fractions):
    """States whose min eig of the Gram matrix R is fraction * scale, fraction < 0.

    With |m| given, [[1 + n, m], [m*, n]] has min eig n + 1/2 - sqrt(1/4 + |m|^2); the
    vacuum modes add eigenvalues 0 and 1, and scale = max(1, |m|) as n < |m|.
    """
    return [
        _raw_state(math.sqrt(0.25 + size**2) - 0.5 + fraction * max(1.0, size), size * phase)
        for fraction in fractions
        for size in (0.3, 1.0, 10.0, 1e3, 1.1e4)
        for phase in (1.0, np.exp(0.7j), -1j)
    ]


# the cases of test_strongly_squeezed_states_are_physical
_SQUEEZED = [
    embed_initial(make_squeezed_coherent(1.0, float(r), phi), 0.0)
    for r in np.arange(0.0, 6.0, 0.01) for phi in (0.0, 0.3, 1.1)
]
_SQ5 = make_squeezed_coherent(0.0, 5.0, 0.3)
_BOUNDARY = [_raw_state(_SQ5.n_ex * (1.0 - 1e-6), _SQ5.m_an)]
# min eig R in (-0.5e-8, -0.25e-8) scale: the screen of shift 0.25e-8 rejects them, eigvalsh accepts
_SCREENED_OUT = _below_bound([-0.3e-8, -0.375e-8, -0.45e-8])
# min eig R in (-1e-8, -0.5e-8) scale: eigvalsh rejects them, a screen of shift 1e-8 would pass them
_JUST_UNPHYSICAL = _below_bound([-0.55e-8, -0.75e-8, -0.95e-8])


def _compare_with_eigvalsh(monkeypatch, states):
    """_first_fault of the stacked states, checked against the eigvalsh-only reference; returns
    the reference's result and the eigvalsh calls _first_fault made."""
    stacks = _stack(states)
    want = _first_fault_by_eigvalsh(*stacks)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    got = gaussian._first_fault(*stacks)
    monkeypatch.undo()
    if want is None:
        assert got is None
    else:
        assert (got[0], type(got[1]), str(got[1])) == (want[0], type(want[1]), str(want[1]))
    return want, len(calls)


@pytest.mark.parametrize(
    "states,eigvalsh_calls",
    [
        (_SQUEEZED, 0),
        (_BOUNDARY, 1),
        (_SCREENED_OUT, 1),
        (_JUST_UNPHYSICAL, 1),
        (_SQUEEZED + _SCREENED_OUT + _BOUNDARY + _JUST_UNPHYSICAL, 1),
        (_SQUEEZED + _SCREENED_OUT + _JUST_UNPHYSICAL + _BOUNDARY, 1),
    ],
    ids=["squeezed", "boundary", "screened_out", "just_unphysical", "all", "all_reordered"],
)
def test_cholesky_screen_reports_what_eigvalsh_alone_reports(monkeypatch, states, eigvalsh_calls):
    want, calls = _compare_with_eigvalsh(monkeypatch, states)
    assert calls == eigvalsh_calls
    assert (want is None) == (states is _SQUEEZED or states is _SCREENED_OUT)


@pytest.mark.parametrize("states", [_SCREENED_OUT, _JUST_UNPHYSICAL], ids=["screened_out", "just_unphysical"])
def test_cholesky_screen_rejects_each_state_near_the_bound(monkeypatch, states):
    # alone, every state within 0.5e-8 scale below the bound fails the screen and
    # goes to eigvalsh, which accepts it above 0.5e-8 scale and rejects it below
    for state in states:
        want, calls = _compare_with_eigvalsh(monkeypatch, [state])
        assert calls == 1
        assert (want is None) == (states is _SCREENED_OUT)


def test_nearly_hermitian_input_is_symmetrized_once():
    # a residue inside the validator's 1e-8 tolerance: anti-Hermitian in N, antisymmetric in A
    clean = embed_initial(make_squeezed_coherent(0.7 - 0.2j, 0.4, 0.3), 1.5)
    skew = np.array([[0.0, 1.0 + 2.0j, -0.5j], [-1.0 + 2.0j, 3.0j, 0.25], [-0.5j, -0.25, 0.0]])
    assert np.array_equal(skew, -skew.conj().T)
    twist = np.array([[0.0, 1.0j, 2.0], [-1.0j, 0.0, -0.5], [-2.0, 0.5, 0.0]])
    nearly = ThreeModeGaussianState(clean.mean, clean.normal + 1e-9 * skew, clean.anomalous + 1e-9 * twist)
    p = SystemParams(kappa1=0.3, kappa2=0.1, gamma_m=2e-3, n_th=4.0)
    got = integrate(nearly, p, FIG1, FIG1.duration, n_samples=11)
    want = integrate(clean, p, FIG1, FIG1.duration, n_samples=11)
    for st, ref in zip(got.states[1:], want.states[1:]):
        assert np.array_equal(st.normal, st.normal.conj().T)
        assert np.array_equal(st.anomalous, st.anomalous.T)
        assert_allclose(st.normal, ref.normal, rtol=0.0, atol=1e-12)
        assert_allclose(st.anomalous, ref.anomalous, rtol=0.0, atol=1e-12)


def test_integrate_batch_bitwise_equal_to_serial():
    # rows of one batch equal single-row batches bit for bit; integrate runs Magnus-6
    # steps instead of RK4 and is 2.8e-10 of the state's scale from them (measured)
    coherent = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    squeezed = embed_initial(make_squeezed_coherent(1.0, 0.4, 0.3), 1.5)
    hot = dict(gamma_m=2e-4, n_th=100.0)
    quiet = dict(gamma_m=0.0, n_th=0.0)
    rows = [
        (coherent, SystemParams(kappa1=0.0, kappa2=0.0, **hot)),
        (squeezed, SystemParams(kappa1=0.3, kappa2=0.1, **hot)),
        (coherent, SystemParams(kappa1=50.0, kappa2=0.0, **hot)),  # 7854 steps, not 2000
        (squeezed, SystemParams(kappa1=1.0, kappa2=0.0, **hot)),
        (coherent, SystemParams(kappa1=0.0, kappa2=0.0, **quiet)),  # quiet-bath twins
        (squeezed, SystemParams(kappa1=0.3, kappa2=0.1, **quiet)),
    ]
    finals = integrate_batch([st for st, _ in rows], [p for _, p in rows], FIG1, math.pi / 2)
    assert len(finals) == len(rows)
    for (st0, p), got in zip(rows, finals):
        [want] = integrate_batch([st0], [p], FIG1, math.pi / 2)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.normal, want.normal)
        assert np.array_equal(got.anomalous, want.anomalous)
        serial = integrate(st0, p, FIG1, math.pi / 2).final
        moments = [np.concatenate([s.mean, s.normal.ravel(), s.anomalous.ravel()]) for s in (got, serial)]
        assert np.abs(moments[0] - moments[1]).max() < 1e-9 * max(1.0, np.abs(moments[1]).max())


def test_integrate_batch_names_time_and_row_of_unphysical_row():
    good = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    bad = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    bad_anom = np.zeros((3, 3), dtype=complex)
    bad_anom[0, 0] = 0.5  # N = 0 with |m| > 0 violates n(n+1) >= |m|^2
    object.__setattr__(bad, "anomalous", bad_anom)  # bypass the constructor check
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    # row 1 runs in its own step group, so row 2 is the second row of its stack
    params = [p, SystemParams(kappa1=50.0, kappa2=0.0), p]
    first_sample = 10 * (math.pi / 2) / 2000
    with pytest.raises(PhysicalityError, match=rf"t = {first_sample:.6g}, row 2: .*uncertainty"):
        integrate_batch([good, good, bad], params, FIG1, math.pi / 2)


def test_integrate_batch_rejects_bad_input():
    st = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    with pytest.raises(GaussianError):
        integrate_batch([st, st], [p], FIG1, math.pi / 2)
    with pytest.raises(GaussianError):
        integrate_batch([st], [p], FIG1, 0.0)


# -- non-finite moments and chunked validation -------------------------------

@pytest.mark.parametrize("field", ["mean", "normal", "anomalous"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_moments_rejected(field, value):
    moments = {"mean": np.zeros(3), "normal": np.eye(3) * 0.5, "anomalous": np.zeros((3, 3))}
    moments[field] = np.array(moments[field], dtype=complex)
    moments[field].flat[0] = value
    with pytest.raises(GaussianError, match="moments must be finite"):
        ThreeModeGaussianState(**moments)


def test_integrate_batch_names_row_of_non_finite_moments():
    good = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    bad = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    object.__setattr__(bad, "normal", np.full((3, 3), math.nan, dtype=complex))
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    first_sample = 10 * (math.pi / 2) / 2000
    with pytest.raises(GaussianError, match=rf"t = {first_sample:.6g}, row 1: moments must be finite"):
        integrate_batch([good, bad, good], [p, p, p], FIG1, math.pi / 2)


def _corrupt_samples(monkeypatch, faults):
    """Make integrate's kernel yield sample k damaged by faults[k]; returns the sample times."""
    kernel = gaussian._magnus_samples
    times = []

    def corrupted(*args):
        for chunk in kernel(*args):
            t, mean, normal, anomalous = (array.copy() for array in chunk)
            for k, fault in faults.items():
                if 0 <= k - len(times) < len(t):
                    fault(mean[k - len(times)], normal[k - len(times)], anomalous[k - len(times)])
            times.extend(t)
            yield t, mean, normal, anomalous

    monkeypatch.setattr(gaussian, "_magnus_samples", corrupted)
    return times


def _squeeze_too_far(mean, normal, anomalous):
    anomalous[0, 0] += 5.0  # |m|^2 far above n(n+1)


def _not_finite(mean, normal, anomalous):
    normal[1, 1] = math.nan


def _not_hermitian(mean, normal, anomalous):
    normal[0, 1] += 1.0


@pytest.mark.parametrize(
    "faults,error,message",
    [
        # 2,000 steps recorded every 2nd: sample 600 lies in the second chunk of 512 samples
        ({600: _squeeze_too_far}, PhysicalityError, "uncertainty relation"),
        ({600: _not_finite}, GaussianError, "moments must be finite"),
        # later faults in the same chunk must not hide the first one
        ({600: _squeeze_too_far, 610: _not_finite}, PhysicalityError, "uncertainty relation"),
        ({600: _squeeze_too_far, 605: _not_hermitian}, PhysicalityError, "uncertainty relation"),
    ],
)
def test_integrate_names_time_of_first_faulty_sample(monkeypatch, faults, error, message):
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    times = _corrupt_samples(monkeypatch, faults)
    with pytest.raises(error, match=message) as info:
        integrate(st0, SystemParams(kappa1=0.1, kappa2=0.0), FIG1, math.pi / 2, n_samples=1001)
    assert info.value.args[0].startswith(f"physicality violation at t = {times[600]:.6g}: ")
    assert len(times) == 1000


def test_integrate_validates_its_input_state():
    bad = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    bad_anom = np.zeros((3, 3), dtype=complex)
    bad_anom[0, 0] = 0.5  # N = 0 with |m| > 0 violates n(n+1) >= |m|^2
    object.__setattr__(bad, "anomalous", bad_anom)  # bypass the constructor check
    with pytest.raises(PhysicalityError, match=r"^physicality violation at t = 0: .*uncertainty"):
        integrate(bad, SystemParams(kappa1=0.1, kappa2=0.0), FIG1, math.pi / 2)


@pytest.mark.parametrize(
    "schedule,params,n_samples",
    [
        (FIG1, SystemParams(kappa1=0.1, kappa2=0.0), 201),  # 2,000 steps, every 10th
        (FIG1, SystemParams(kappa1=0.1, kappa2=0.0), 301),  # every 6th, and the last
        (FIG1, SystemParams(kappa1=50.0, kappa2=0.0), 2),  # 7,854 steps, the last only
        (TrigSchedule(1.0, 23.0), SystemParams(kappa1=0.01, kappa2=0.02), 10**9),  # every step
    ],
)
def test_trajectory_times_are_the_step_grid(schedule, params, n_samples):
    state0 = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    t_final = schedule.duration
    traj = integrate(state0, params, schedule, t_final, n_samples=n_samples)
    n = gaussian._step_count(params, gaussian._peak_coupling(schedule, t_final), t_final)
    h = t_final / n
    every = max(1, n // (n_samples - 1))
    ends = [k for k in range(1, n + 1) if k % every == 0 or k == n]
    want = np.array([0.0] + [t_final if k == n else k * h for k in ends])
    assert traj.times.tobytes() == want.tobytes()
    assert len(traj.states) == len(want)


def test_trajectory_states_view_its_stacks():
    p = SystemParams(kappa1=0.3, kappa2=0.1, gamma_m=2e-3, n_th=4.0)
    st0 = embed_initial(make_squeezed_coherent(0.7 - 0.2j, 0.4, 0.3), 1.5)
    traj = integrate(st0, p, FIG1, FIG1.duration, n_samples=11)
    states = traj.states
    assert isinstance(states, Sequence) and len(states) == len(traj.times) == 11

    def rows_equal(state, k):
        return all(getattr(state, f).tobytes() == getattr(traj, f)[k].tobytes() for f in ("mean", "normal", "anomalous"))

    everything = list(states)  # iteration runs to the end and stops
    assert len(everything) == 11 and all(rows_equal(st, k) for k, st in enumerate(everything))
    assert rows_equal(states[-1], 10) and rows_equal(states[-11], 0) and rows_equal(states[np.int64(3)], 3)
    assert rows_equal(traj.final, 10)  # so traj.final equals traj.states[-1]
    picked = states[1:8:3]
    assert len(picked) == 3 and all(rows_equal(st, k) for st, k in zip(picked, (1, 4, 7)))
    assert rows_equal(states[::-1][0], 10) and states[20:] == []
    assert st0.normal.tobytes() == states[0].normal.tobytes()
    for bad in (11, -12):
        with pytest.raises(IndexError):
            states[bad]
    with pytest.raises(TypeError):
        states[0] = st0


def _mean_reference(schedule, params, mean0, t_final):
    """DOP853 on the mean equation d<v>/dt = -i M <v>, restarted at every breakpoint."""
    k1, k2, gm = params.kappa1, params.kappa2, params.gamma_m

    def rhs(t, y):
        g1, g2 = (float(g) for g in schedule.values(t))
        v = y[:3] + 1j * y[3:]
        d = np.array([-0.5 * k1 * v[0] - 1j * g1 * v[1],
                      -1j * g1 * v[0] - 0.5 * gm * v[1] - 1j * g2 * v[2],
                      -1j * g2 * v[1] - 0.5 * k2 * v[2]])
        return np.concatenate([d.real, d.imag])

    y = np.concatenate([mean0.real, mean0.imag])
    edges = [0.0, *(b for b in schedule.times if 0.0 < b < t_final), t_final]
    for lo, hi in zip(edges, edges[1:]):
        y = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
    return y[:3] + 1j * y[3:]


def test_integrate_step_sees_coupling_burst_between_grid_times():
    # a 0.03-long burst to |g| = 20 fits between two of 257 equally spaced times of [0, T];
    # a step sized from |g| = 0.5 left the final mean 3.2e-5 off, one sized at the kinks 2.5e-9
    t_final = 10.0
    start = t_final / 2 + 0.1 * t_final / 256
    times = (0.0, start, start + 0.005, start + 0.025, start + 0.03, t_final)
    schedule = PiecewiseLinearSchedule(
        times, (0.5, 0.5, 20.0, 20.0, 0.5, 0.5), (-0.5, -0.5, -20.0, -20.0, -0.5, -0.5)
    )
    params = SystemParams(kappa1=0.01, kappa2=0.01, gamma_m=1e-4, n_th=2.0)
    state0 = embed_initial(make_squeezed_coherent(1.0, 0.3, 0.2), 2.0)
    final = integrate(state0, params, schedule, t_final, n_samples=2).final
    reference = _mean_reference(schedule, params, state0.mean, t_final)
    assert np.abs(final.mean - reference).max() < 1e-7


def test_every_step_equals_composing_the_magnus_maps_one_by_one():
    # 2,500 steps make chunks of 1,024, 1,024 and 452 steps, the last neither full nor a
    # power of two, so an off-by-one in the scan's offsets or in the carried state shows
    schedule = TrigSchedule(1.0, 25.0)
    params = SystemParams(kappa1=0.3, kappa2=0.1, gamma_m=2e-3, n_th=4.0)
    state0 = embed_initial(make_squeezed_coherent(0.7 - 0.2j, 0.4, 0.3), 1.5)
    traj = integrate(state0, params, schedule, schedule.duration, n_samples=10**9)
    n = len(traj.times) - 1
    assert n == 2500 and n % gaussian._CHUNK_STEPS == 452
    h = schedule.duration / n
    ts = np.clip((np.arange(n) + model._GL3_NODES[:, None]) * h, 0.0, schedule.duration)
    b = np.moveaxis(1j * drift_stack(params.damping_diagonal, *schedule.values(ts)).conj(), 1, -1)
    diffusion = np.diag([0.0, params.gamma_m * params.n_th, 0.0]).astype(complex)
    e11, e12, _ = model._magnus6_block_exp(
        np.ascontiguousarray(b), diffusion[..., None], np.ascontiguousarray(-b.conj().swapaxes(1, 2)), h
    )
    mean, normal, anomalous = state0.mean, state0.normal, state0.anomalous
    scale = max(np.abs(traj.mean).max(), np.abs(traj.normal).max(), np.abs(traj.anomalous).max())
    worst = 0.0
    for k in range(n):
        e = e11[..., k]
        mean = e.conj() @ mean
        normal = e @ normal @ e.conj().T + e12[..., k] @ e.conj().T
        anomalous = e.conj() @ anomalous @ e.conj().T
        for got, want in zip((traj.mean, traj.normal, traj.anomalous), (mean, normal, anomalous)):
            worst = max(worst, float(np.abs(got[k + 1] - want).max()))
    assert worst <= 1e-13 * scale
