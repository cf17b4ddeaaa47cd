"""The trajectory path's real gauge against frozen complex-frame copies.

integrate, the eigensolves and the Fock oracle work in the gauge
v = T w, T = diag(1, -i, -1), where the drift and the Fock generators are
real.  The copies below are the complex-frame code these replaced; every
factor of the gauge is a unit, so trajectories stay bitwise the same and
the rest agrees to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtransfer import gaussian, spectral
from omtransfer.gaussian import GaussianError, PhysicalityError
from omtransfer.model import (
    _GAUGE,
    _GL3_NODES,
    ConstantCoupling,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
    _gauged_drift,
    _magnus6_block_exp,
    _mul,
    drift_stack,
)


def _advance_complex(e, q, mean, normal, anomalous):
    ec = e.conj()
    eh = ec.swapaxes(0, 1)
    n = _mul(_mul(e, normal), eh) + q
    a = _mul(_mul(ec, anomalous), eh)
    return _mul(ec, mean[:, None])[:, 0], 0.5 * (n + n.conj().swapaxes(0, 1)), 0.5 * (a + a.swapaxes(0, 1))


def _magnus_samples_complex(mean, normal, anomalous, params, schedule, t_final, n_steps, n_samples):
    h = t_final / n_steps
    record_every = max(1, n_steps // max(1, n_samples - 1))
    diffusion = gaussian._diffusion([params])[0]
    mean = mean[:, None]
    normal = 0.5 * (normal + normal.conj().T)[..., None]
    anomalous = 0.5 * (anomalous + anomalous.T)[..., None]
    for k0 in range(0, n_steps, gaussian._CHUNK_STEPS):
        ends = np.arange(k0 + 1, min(k0 + gaussian._CHUNK_STEPS, n_steps) + 1)
        ts = np.clip((ends - 1.0 + _GL3_NODES[:, None]) * h, 0.0, schedule.duration)
        m = np.moveaxis(drift_stack(params.damping_diagonal, *schedule.values(ts)), 1, -1)
        b = np.ascontiguousarray(1j * m.conj())
        minus_bh = np.ascontiguousarray(-b.conj().swapaxes(1, 2))
        e, e12, _ = _magnus6_block_exp(b, diffusion[..., None], minus_bh, h)
        q = _mul(e12, e.conj().swapaxes(0, 1))
        d = 1
        while d < len(ends):
            ek = e[..., d:]
            q[..., d:] += _mul(_mul(ek, q[..., :-d]), ek.conj().swapaxes(0, 1))
            e[..., d:] = _mul(ek, e[..., :-d])
            d *= 2
        recorded = (ends % record_every == 0) | (ends == n_steps)
        samples = _advance_complex(e[..., recorded], q[..., recorded], mean, normal, anomalous)
        mean, normal, anomalous = _advance_complex(e[..., -1:], q[..., -1:], mean, normal, anomalous)
        times = np.where(ends[recorded] == n_steps, t_final, ends[recorded] * h)
        yield (times, *(np.ascontiguousarray(np.moveaxis(f, -1, 0)) for f in samples))


SCHEDULES = {
    "trig": TrigSchedule(amplitude=1.0, duration=30.0),
    "tanh": TanhRampSchedule(g_max=1.2, center=15.0, width=4.0, duration=30.0),
    "constant": ConstantCoupling(0.7, -0.4, duration=30.0),
    "piecewise": PiecewiseLinearSchedule((0.0, 10.0, 20.0, 30.0), (0.0, 1.0, 1.0, 0.5), (-1.0, -0.5, 0.2, 0.0)),
}
PARAMS = [SystemParams(0.1, 0.2, 0.01, 1.0), SystemParams(0.0, 0.0), SystemParams(0.3, 0.05, 0.002, 20.0)]


@pytest.mark.parametrize("params", PARAMS, ids=["damped", "lossless", "hot"])
@pytest.mark.parametrize("kind", SCHEDULES)
def test_gauged_magnus_samples_equal_the_complex_frame(kind, params):
    schedule = SCHEDULES[kind]
    state = gaussian.embed_initial(gaussian.make_squeezed_coherent(1.5 + 0.5j, 0.3, 0.4), 0.5)
    n_steps = gaussian._step_count(params, gaussian._peak_coupling(schedule, 30.0), 30.0)
    assert n_steps > gaussian._CHUNK_STEPS  # more than one chunk, so the carried state is compared too
    args = (state.mean, state.normal, state.anomalous, params, schedule, 30.0, n_steps)
    for n_samples in (10**9, 57):
        got = list(gaussian._magnus_samples(*args, n_samples))
        want = list(_magnus_samples_complex(*args, n_samples))
        assert len(got) == len(want)
        for chunk, frozen in zip(got, want):
            for field, ref in zip(chunk, frozen):
                assert field.dtype == ref.dtype and field.flags.c_contiguous
                assert np.array_equal(field, ref)


def _random_drift(rng):
    params = SystemParams(*rng.uniform(0.0, 0.5, 3))
    return drift_stack(params.damping_diagonal, *rng.uniform(-5.0, 5.0, 2))


def _gauged_parts(t, m):
    """T^-1 (i M*) T and T^-1 (-i M) T, entry by entry, for a unit diagonal T."""
    inv = t.conj()[:, None] * t
    return inv * (1j * m.conj()), inv * (-1j * m)


@settings(max_examples=60, deadline=None)
@given(
    damping=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
    g1=st.floats(-10.0, 10.0),
    g2=st.floats(-10.0, 10.0),
)
def test_gauge_makes_both_drift_forms_real(damping, g1, g2):
    m = drift_stack(SystemParams(*damping).damping_diagonal, g1, g2)
    b, r = _gauged_parts(_GAUGE, m)
    assert np.all(b.imag == 0.0) and np.all(r.imag == 0.0)
    assert np.array_equal(_gauged_drift(m), r.real) and np.array_equal(_gauged_drift(m).T, b.real)


def test_gauge_property_rejects_a_wrong_gauge():
    # the property test above must catch a gauge that leaves a coupling imaginary
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = _random_drift(rng)
        assert any(np.any(part.imag != 0.0) for part in _gauged_parts(np.array([1.0, 1.0, -1.0]), m))


def _dark_mode_via_eigensystem(m):
    """The complex-frame selection: LAPACK's complex eig, sorted and phased as an unreferenced eigensystem."""
    lambdas, raw = np.linalg.eig(m)
    first = np.lexsort((lambdas.imag, lambdas.real))
    vectors = raw[:, first] * spectral._top_phase(raw[:, first])
    ideal = spectral._ideal_dark_vector(m[0, 1].real, m[1, 2].real)
    i = int(np.argmax(np.abs(ideal.conj() @ vectors)))
    v = spectral._fix_phase(vectors[:, i])
    return v, lambdas[first][i]


def test_dark_mode_from_checked_eigenpairs_equals_the_eigensystem_selection():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = _random_drift(rng)
        dark = spectral.dark_mode_exact(m)
        vector, lam = _dark_mode_via_eigensystem(m)
        assert np.abs(dark.vector - vector).max() <= 1e-13
        assert abs(dark.lambda1 - lam) <= 1e-13 * max(1.0, abs(lam))


def test_dark_mode_runs_the_eigensystem_checks():
    # at the exceptional point of the spectral module docstring the basis is ill-conditioned
    with pytest.raises(spectral.SpectralError, match="exceptional point"):
        spectral.dark_mode_exact(drift_stack(SystemParams(kappa1=0.4, kappa2=0.0).damping_diagonal, 0.1, 0.0))


def _expm_antihermitian(g):
    lam, v = np.linalg.eigh(-1j * g)
    return (v * np.exp(1j * lam)) @ v.conj().T


def _fock_density_complex(s, cutoff):
    nbar, r, phase = gaussian._squeezed_thermal_split(s)
    dim = cutoff + max(16, cutoff // 2)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    raise_ = lower.conj().T
    if nbar > 0:
        diag = np.exp(np.arange(dim) * math.log(nbar / (nbar + 1.0))) / (nbar + 1.0)
    else:
        diag = np.zeros(dim)
        diag[0] = 1.0
    rho = np.diag(diag).astype(complex)
    if r > 0:
        eps = r * phase
        squeeze = _expm_antihermitian((np.conj(eps) * (lower @ lower) - eps * (raise_ @ raise_)) / 2.0)
        rho = squeeze @ rho @ squeeze.conj().T
    if s.mean != 0:
        disp = _expm_antihermitian(s.mean * raise_ - np.conj(s.mean) * lower)
        rho = disp @ rho @ disp.conj().T
    block = rho[:cutoff, :cutoff]
    return block, abs(1.0 - float(np.trace(block).real))


def test_fock_density_from_real_bases_equals_the_complex_frame():
    rng = np.random.default_rng(12)
    cutoff = 48
    bases = gaussian._fock_bases(cutoff + max(16, cutoff // 2))
    states = [gaussian.make_squeezed_coherent(0.0, 0.0), gaussian.SingleModeGaussian(0.0, 0.7, 0j)]
    for _ in range(12):
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        r, nu = rng.uniform(0.0, 0.6), 1.0 + 2.0 * rng.uniform(0.0, 0.5)
        m_an = -np.exp(2j * rng.uniform(0.0, math.pi)) * nu * math.sinh(2.0 * r) / 2.0
        states.append(gaussian.SingleModeGaussian(alpha, (nu * math.cosh(2.0 * r) - 1.0) / 2.0, complex(m_an)))
    for s in states:
        rho, deficit = gaussian._fock_density(s, cutoff, bases)
        want, want_deficit = _fock_density_complex(s, cutoff)
        assert np.abs(rho - want).max() <= 1e-13
        assert abs(deficit - want_deficit) <= 1e-13


def _first_fault_frozen(mean, normal, anomalous):
    """_first_fault as it tested the whole 6x6 Gram stack for finiteness and symmetry."""
    gram = np.empty((len(normal), 6, 6), dtype=complex)
    gram[:, :3, :3] = normal.swapaxes(1, 2) + np.eye(3)
    gram[:, :3, 3:] = anomalous
    gram[:, 3:, :3] = anomalous.conj()
    gram[:, 3:, 3:] = normal
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(gram).all(axis=(1, 2))
    gram[~finite] = 0.0
    scale = np.maximum(1.0, np.abs(gram[:, :, 3:]).max(axis=(1, 2)))
    asym = np.abs(gram - gram.conj().swapaxes(1, 2)) > 1e-8 * scale[:, None, None]
    shifted = gram.copy()
    shifted[:, range(6), range(6)] += gaussian._SCREEN_SHIFT * scale[:, None]
    try:
        np.linalg.cholesky(shifted)
        defect = np.zeros(len(gram))
    except np.linalg.LinAlgError:
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


def _set(field, index, value):
    def fault(mean, normal, anomalous):
        {"mean": mean, "normal": normal, "anomalous": anomalous}[field][index] = value
    return fault


FAULTS = {
    "nan_mean": _set("mean", (7, 1), complex(np.nan, 0.0)),
    "inf_normal": _set("normal", (7, 0, 2), np.inf),
    "inf_anomalous": _set("anomalous", (7, 1, 1), complex(0.0, -np.inf)),
    "not_hermitian": _set("normal", (7, 0, 1), 0.3),
    "not_symmetric": _set("anomalous", (7, 2, 0), 0.2j),
    "negative_occupation": _set("normal", (7, 2, 2), -0.1),
    "uncertainty": _set("anomalous", (7, 0, 0), 5.0),
}


@pytest.mark.parametrize("faults", [[], *([f] for f in FAULTS), list(FAULTS), ["uncertainty", "nan_mean"]],
                         ids=["clean", *FAULTS, "all", "uncertainty_then_nan"])
def test_first_fault_reads_only_the_blocks_it_reports_on(faults):
    rng = np.random.default_rng(30)
    states = [
        gaussian.embed_initial(gaussian.make_squeezed_coherent(complex(*rng.uniform(-1, 1, 2)), r), 0.2)
        for r in rng.uniform(0.0, 1.0, 16)
    ]
    mean, normal, anomalous = (np.array([getattr(s, f) for s in states]) for f in ("mean", "normal", "anomalous"))
    for k, name in enumerate(faults):
        # each later fault goes one row further down, behind the earlier ones
        rows = (mean[k:], normal[k:], anomalous[k:])
        FAULTS[name](*rows)
    got, want = gaussian._first_fault(mean, normal, anomalous), _first_fault_frozen(mean, normal, anomalous)
    if want is None:
        assert got is None
    else:
        assert (got[0], type(got[1]), str(got[1])) == (want[0], type(want[1]), str(want[1]))
