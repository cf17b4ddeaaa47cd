import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from omtransfer import gaussian
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
    quadrature_covariance,
    moment_rhs,
    reduce_to_mode,
    trajectory_to_csv,
)
from omtransfer.model import ConstantCoupling, SystemParams, TrigSchedule

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


def test_moment_rhs_mechanical_relaxation():
    p = SystemParams(kappa1=0.0, kappa2=0.0, gamma_m=0.5, n_th=3.0)
    n0 = 1.25
    st = ThreeModeGaussianState(
        mean=np.zeros(3), normal=np.diag([0.0, n0, 0.0]), anomalous=np.zeros((3, 3))
    )
    d = moment_rhs(0.0, st, p, ConstantCoupling(0.0, 0.0))
    assert d.normal[1, 1] == pytest.approx(0.5 * (3.0 - n0))


def test_moment_rhs_conserves_excitation_without_damping():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    st = embed_initial(make_squeezed_coherent(1.0, 0.4, 0.3), 2.0)
    d = moment_rhs(0.2, st, p, FIG1)
    assert np.trace(d.normal) == pytest.approx(0.0, abs=1e-14)


def test_moment_rhs_decoupled_decay():
    p = SystemParams(kappa1=0.3, kappa2=0.0)
    st = embed_initial(make_squeezed_coherent(2.0, 0.0, 0.0), 0.0)
    d = moment_rhs(0.0, st, p, ConstantCoupling(0.0, 0.0))
    assert d.mean[0] == pytest.approx(-0.15 * 2.0)


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
        want = integrate(st0, p, FIG1, math.pi / 2).final
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.normal, want.normal)
        assert np.array_equal(got.anomalous, want.anomalous)


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


def test_trajectory_csv_layout():
    p = SystemParams(kappa1=0.1, kappa2=0.0)
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.2, 0.0), 0.5)
    traj = integrate(st0, p, FIG1, math.pi / 2, n_samples=11)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(header) == 16
    assert len(lines) - 1 == len(traj.states)
    assert text.endswith("\n")


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
    kernel = gaussian._rk4_samples
    times = []

    def corrupted(*args):
        for k, (t, mean, normal, anomalous) in enumerate(kernel(*args)):
            times.append(t)
            if k in faults:
                mean, normal, anomalous = mean.copy(), normal.copy(), anomalous.copy()
                faults[k](mean, normal, anomalous)
            yield t, mean, normal, anomalous

    monkeypatch.setattr(gaussian, "_rk4_samples", corrupted)
    return times


def _squeeze_too_far(mean, normal, anomalous):
    anomalous[0, 0, 0] += 5.0  # |m|^2 far above n(n+1)


def _not_finite(mean, normal, anomalous):
    normal[0, 1, 1] = math.nan


def _not_hermitian(mean, normal, anomalous):
    normal[0, 0, 1] += 1.0


@pytest.mark.parametrize(
    "faults,error,message",
    [
        # sample 300 lies in the second chunk of 256 samples
        ({300: _squeeze_too_far}, PhysicalityError, "uncertainty relation"),
        ({300: _not_finite}, GaussianError, "moments must be finite"),
        # later faults in the same chunk must not hide the first one
        ({300: _squeeze_too_far, 310: _not_finite}, PhysicalityError, "uncertainty relation"),
        ({300: _squeeze_too_far, 305: _not_hermitian}, PhysicalityError, "uncertainty relation"),
    ],
)
def test_integrate_names_time_of_first_faulty_sample(monkeypatch, faults, error, message):
    st0 = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
    times = _corrupt_samples(monkeypatch, faults)
    with pytest.raises(error, match=message) as info:
        integrate(st0, SystemParams(kappa1=0.1, kappa2=0.0), FIG1, math.pi / 2, n_samples=1001)
    assert info.value.args[0].startswith(f"physicality violation at t = {times[300]:.6g}: ")
    assert len(times) > 310
