"""The real gauge against frozen complex-frame copies.

integrate, the time-domain pulse path, the eigensolves and the Fock oracle
work in the gauge v = T w, T = diag(1, -i, -1), where the drift and the
Fock generators are real.  The copies below are the complex-frame code
these replaced; every factor of the gauge is a unit, so trajectories stay
bitwise the same and the rest agrees to rounding.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtransfer import gaussian, model, spectral, transmission
from omtransfer.cli import main
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


def test_equal_steps_share_one_exponential_bit_for_bit():
    # a constant coupling makes every step of a chunk one run of model._gauged_panels, and its
    # one exponential is expanded back to the steps before Q = Phi12 Phi11^T is formed: forming
    # Q on the run's lone column rounds differently here (a perfbench trajectory_study case)
    params = SystemParams(0.00452852, 0.00946068, 0.000230223, 2.0)
    schedule = ConstantCoupling(1.0, -0.755488, duration=100.0)
    state = gaussian.embed_initial(gaussian.make_squeezed_coherent(1.71756 + 1.02469j, 0.2, 1.33335), 0.1)
    n_steps = gaussian._step_count(params, gaussian._peak_coupling(schedule, 100.0), 100.0)
    args = (state.mean, state.normal, state.anomalous, params, schedule, 100.0, n_steps, 10**9)
    for chunk, frozen in zip(gaussian._magnus_samples(*args), _magnus_samples_complex(*args), strict=True):
        for field, ref in zip(chunk, frozen):
            assert np.array_equal(field, ref)  # up to the sign of zero entries


def _piece_maps_complex(params, schedule, starts, lengths, n):
    counts = (n, 2 * n)
    h = np.concatenate([np.repeat(lengths / m, m) for m in counts])
    t0 = np.concatenate([(starts[:, None] + (lengths / m)[:, None] * np.arange(m)).ravel() for m in counts])
    g1, g2 = schedule.values(t0[:, None] + h[:, None] * _GL3_NODES)
    keys = np.column_stack([h, g1, g2])
    fresh, inverse = model._runs(keys)
    keys = keys[fresh].T
    m = np.moveaxis(drift_stack(params.damping_diagonal, keys[1:4], keys[4:]), 1, -1)
    drive, slope = np.zeros((3, 2, 1)), np.zeros((3, 2, 2, 1))
    drive[0, 0], slope[:, 0, 1] = math.sqrt(params.kappa1), 1.0
    panels = np.zeros((5, 5, keys.shape[1]), dtype=complex)
    panels[:3, :3], panels[:3, 3:], panels[3:, 3:] = _magnus6_block_exp(
        np.ascontiguousarray(-1j * m), drive, slope, keys[0]
    )
    panels = np.moveaxis(panels, -1, 0)
    products = []
    for index in np.split(inverse, [n * starts.size]):
        index = index.reshape(starts.size, -1)
        fresh, piece = model._runs(index)
        part = panels[index[fresh]]
        while part.shape[1] > 1:
            part = part[:, 1::2] @ part[:, ::2]
        products.append(part[piece, 0])
    return products


def _transmit_pulse_time_complex(p_in, params, schedule):
    """transmit_pulse_time in the complex frame: per-interval rank composition, then a Python recursion."""
    t_grid, dt, u = p_in.times, p_in.dt, p_in.amplitudes
    slope = np.diff(u) / dt
    edges = np.union1d(t_grid, schedule.kinks(0.0, t_grid[-1]))
    interval = np.searchsorted(t_grid, edges[:-1], side="right") - 1
    rank = np.arange(interval.size) - np.searchsorted(interval, interval)
    lengths = np.where(np.bincount(interval)[interval] == 1, dt, np.diff(edges))
    starts = edges[:-1]
    peak = float(np.abs(u).max())
    weights = np.array([math.sqrt(dt * float(np.vdot(u, u).real))] * 3 + [peak, float(np.abs(slope).max())])
    tol = transmission._PULSE_TOL * peak
    maps = np.empty((starts.size, 5, 5), dtype=complex)
    counts = np.ones(starts.size, dtype=int)
    done = np.zeros(starts.size, dtype=bool)
    todo = np.arange(starts.size)
    while todo.size:
        for n in np.unique(counts[todo]):
            group = todo[counts[todo] == n]
            coarse, fine = _piece_maps_complex(params, schedule, starts[group], lengths[group], int(n))
            err = (np.abs(fine[:, :3] - coarse[:, :3]) * weights).sum(-1).max(-1)
            ok = err <= tol
            maps[group[ok]], done[group[ok]] = coarse[ok], True
            shift = np.ceil(np.log2(2.0 * err[~ok] / tol) / 6.0)
            counts[group[~ok]] = n << np.minimum(shift, 20).astype(int)
        todo = todo[~done[todo]]
    step = maps[rank == 0]
    for r in range(1, int(rank.max()) + 1):
        later = rank == r
        step[interval[later]] = maps[later] @ step[interval[later]]
    phi = step[:, :3, :3]
    drive = step[:, :3, 3] * u[:-1, None] + step[:, :3, 4] * slope[:, None]
    y0 = y1 = y2 = 0j
    a2 = [y2]
    for (p00, p01, p02, p10, p11, p12, p20, p21, p22), (d0, d1, d2) in zip(
        phi.reshape(-1, 9).tolist(), drive.tolist()
    ):
        y0, y1, y2 = (
            p00 * y0 + p01 * y1 + p02 * y2 + d0,
            p10 * y0 + p11 * y1 + p12 * y2 + d1,
            p20 * y0 + p21 * y1 + p22 * y2 + d2,
        )
        a2.append(y2)
    return -math.sqrt(params.kappa2) * np.array(a2), counts


def _pulse_case(kind, amplitude):
    p_in = transmission.gaussian_pulse(0.2, amplitude, 512)
    t_end = float(p_in.times[-1])
    schedule = {
        "constant": ConstantCoupling(4.0, 3.0),
        # the bundled engineer_step couplings: a kink inside one grid interval splits it in two pieces
        "engineer_step": PiecewiseLinearSchedule((0.0, 40.0, 40.01, 80.0), (0.0, 0.0, 4.0, 4.0), (0.0, 0.0, 3.0, 3.0)),
        # g0 dt = 1: pieces near the crossover take several panels
        "tanh": TanhRampSchedule(g_max=1.0 / p_in.dt, center=0.45 * t_end, width=0.5, duration=t_end),
    }[kind]
    return p_in, SystemParams(kappa1=0.32, kappa2=0.16, gamma_m=0.001), schedule


@pytest.mark.parametrize("amplitude", [1.0, 0.3 - 0.2j], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["constant", "engineer_step", "tanh"])
def test_gauged_pulse_scan_equals_the_complex_frame(kind, amplitude):
    p_in, params, schedule = _pulse_case(kind, amplitude)
    got = transmission.transmit_pulse_time(p_in, params, schedule).amplitudes
    want, counts = _transmit_pulse_time_complex(p_in, params, schedule)
    assert counts.max() > 1 or kind != "tanh"
    assert np.abs(want).max() > 0.1 * abs(amplitude)
    # measured at most 4.4e-15 of the peak
    assert np.abs(got - want).max() <= 1e-13 * np.abs(p_in.amplitudes).max()


def test_magnus_kernel_takes_only_real_generators(monkeypatch, tmp_path):
    seen = []

    def spy(x, y, z, h):
        seen.append((x.dtype, y.dtype, z.dtype))
        return model._magnus6_block_exp(x, y, z, h)

    # both callers import the kernel by name
    monkeypatch.setattr(gaussian, "_magnus6_block_exp", spy)
    monkeypatch.setattr(transmission, "_magnus6_block_exp", spy)
    state = gaussian.embed_initial(gaussian.make_squeezed_coherent(0.5 + 0.5j, 0.3, 0.4), 0.5)
    gaussian.integrate(state, PARAMS[0], SCHEDULES["trig"], 30.0, n_samples=5)
    from_integrate = len(seen)
    config = Path(__file__).resolve().parents[1] / "scenarios" / "engineer_step.cfg"
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert 0 < from_integrate < len(seen)
    assert set(seen) == {(np.dtype(np.float64),) * 3}


def test_stacked_products_get_the_step_axis_fastest(monkeypatch, tmp_path):
    # model._mul's einsum is about 10x slower, and may round differently, when the step
    # axis of an operand does not vary fastest, as on a[..., mask] or a[..., index]
    seen, mul = [], model._mul

    def spy(a, b):
        seen.extend(x for x in (a, b) if x.shape[-1] > 1)
        return mul(a, b)

    # the callers look _mul up by name: model's kernel and scan, gaussian's _advance, transmission's scan
    for module in (model, gaussian, transmission):
        monkeypatch.setattr(module, "_mul", spy)
    state = gaussian.embed_initial(gaussian.make_squeezed_coherent(0.5 + 0.5j, 0.3, 0.4), 0.5)
    gaussian.integrate(state, PARAMS[0], SCHEDULES["trig"], 30.0, n_samples=57)
    from_integrate = len(seen)
    gaussian.integrate_batch([state] * 2, PARAMS[:2], SCHEDULES["piecewise"], 30.0)
    from_batch = len(seen)
    config = Path(__file__).resolve().parents[1] / "scenarios" / "engineer_step.cfg"
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert 0 < from_integrate < from_batch < len(seen)
    assert [x.strides[-1] for x in seen if abs(x.strides[-1]) != x.itemsize] == []


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
