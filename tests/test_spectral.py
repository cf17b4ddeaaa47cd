import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from omtransfer.model import ConstantCoupling, SystemParams, TrigSchedule
from omtransfer.model import TanhRampSchedule, drift_stack, dynamic_matrix_at
from omtransfer.spectral import (
    SpectralError,
    adiabatic_correction_norm,
    dark_mode_exact,
    dark_mode_perturbative,
    _top_phase,
    eigensystem,
    eigensystem_sweep,
)


def drift(p, g1, g2):
    return drift_stack(p.damping_diagonal, g1, g2)


def checked_eigensystem(m):
    es = eigensystem(m)
    scale = np.linalg.norm(m)
    for i in range(3):
        v = es.vectors[:, i]
        assert np.linalg.norm(m @ v - es.lambdas[i] * v) < 1e-10 * max(scale, 1.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        # phase convention: largest-modulus component real and positive
        top = v[int(np.argmax(np.abs(v)))]
        assert abs(top.imag) < 1e-10 and top.real > 0
    assert np.linalg.norm(es.vectors @ es.inverse - np.eye(3)) < 1e-10
    return es


def test_zero_damping_spectrum():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    es = checked_eigensystem(drift(p, 3.0, 4.0))
    assert_allclose(sorted(es.lambdas.real), [-5.0, 0.0, 5.0], atol=1e-12 * 5.0)
    assert_allclose(es.lambdas.imag, np.zeros(3), atol=1e-12 * 5.0)


def test_diagonal_matrix_spectrum():
    p = SystemParams(kappa1=0.1, kappa2=0.2, gamma_m=0.3)
    es = checked_eigensystem(drift(p, 0.0, 0.0))
    got = sorted(es.lambdas, key=lambda z: z.imag)
    assert_allclose(got, [-0.15j, -0.1j, -0.05j], atol=1e-14)


def test_eigenvalues_against_companion_oracle():
    # independent oracle: numpy's companion-matrix root finder on det(M - x I)
    p = SystemParams(kappa1=0.064 * 5, kappa2=0.036 * 5, gamma_m=2e-4 * 5)
    m = drift(p, 4.0, 3.0)
    es = checked_eigensystem(m)
    tr = np.trace(m)
    s2 = (
        m[0, 0] * m[1, 1]
        - m[0, 1] ** 2
        + m[0, 0] * m[2, 2]
        + m[1, 1] * m[2, 2]
        - m[1, 2] ** 2
    )
    det = np.linalg.det(m)
    oracle = np.roots([1.0, -tr, s2, -det])
    for lam in es.lambdas:
        assert min(abs(lam - mu) for mu in oracle) < 1e-10


def test_trace_identity_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k1, k2, gm = rng.uniform(0.0, 1.0, size=3)
        g1, g2 = rng.uniform(-4.0, 4.0, size=2)
        p = SystemParams(kappa1=k1, kappa2=k2, gamma_m=gm)
        es = eigensystem(drift(p, g1, g2))
        expected = -0.5j * (k1 + k2 + gm)
        scale = max(abs(expected), 1.0)
        assert abs(es.lambdas.sum() - expected) < 1e-12 * scale


def test_dark_mode_limits():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    dm = dark_mode_exact(drift(p, 0.0, -5.0))
    assert_allclose(dm.vector, [1.0, 0.0, 0.0], atol=1e-12)
    dm = dark_mode_exact(drift(p, 5.0, 0.0))
    assert_allclose(dm.vector, [0.0, 0.0, 1.0], atol=1e-12)


def test_dark_mode_mechanical_weight_vs_prediction():
    # exact eigenvector as oracle for the first-order mechanical weight
    p = SystemParams(kappa1=0.1, kappa2=0.02)
    dm = dark_mode_exact(drift(p, 1.0, 1.0))
    predicted = ((0.1 - 0.02) * 1.0 * 1.0 / (2.0 * 2.0**1.5)) ** 2
    assert dm.mechanical_weight == pytest.approx(predicted, rel=2e-3)


def test_dark_mode_perturbative_cases():
    p_eq = SystemParams(kappa1=0.1, kappa2=0.1)
    assert dark_mode_perturbative(p_eq, 1.0, 2.0).mechanical_weight == 0.0

    p = SystemParams(kappa1=0.2, kappa2=0.0)
    dm = dark_mode_perturbative(p, 1.0, 1.0)
    assert dm.lambda1 == pytest.approx(-0.05j)

    # ratio above 0.2 warns, at or above 1 is rejected
    with pytest.warns(UserWarning):
        dark_mode_perturbative(SystemParams(kappa1=0.4, kappa2=0.0), 1.0, 1.0)
    with pytest.raises(SpectralError):
        dark_mode_perturbative(SystemParams(kappa1=2.0, kappa2=0.0), 1.0, 1.0)

    dm = dark_mode_perturbative(SystemParams(kappa1=0.3, kappa2=0.1), 0.0, 7.0)
    assert dm.lambda1 == pytest.approx(-0.15j)
    assert_allclose(dm.vector, [1.0, 0.0, 0.0], atol=1e-15)


def test_perturbative_matches_exact_to_second_order():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g1, g2 = rng.uniform(0.5, 5.0, size=2)
        g0 = math.hypot(g1, g2)
        k1, k2, gm = rng.uniform(0.0, 0.1 * g0, size=3)
        ratio = max(k1, k2, gm) / g0
        p = SystemParams(kappa1=k1, kappa2=k2, gamma_m=gm)
        pert = dark_mode_perturbative(p, g1, g2)
        exact = dark_mode_exact(drift(p, g1, g2))
        assert abs(pert.lambda1 - exact.lambda1) < 5.0 * ratio**2 * g0
        assert np.linalg.norm(pert.vector - exact.vector) < 5.0 * ratio**2
        assert exact.lambda1.imag <= 1e-15


def test_continuity_tracking_along_trig_sweep():
    p = SystemParams(kappa1=0.3, kappa2=0.1, gamma_m=0.01)
    sched = TrigSchedule(5.0, math.pi / 2)
    times = np.linspace(0.0, math.pi / 2, 1000)
    systems = eigensystem_sweep(p, sched, times)
    for prev, cur in zip(systems, systems[1:]):
        for i in range(3):
            assert abs(np.vdot(prev.vectors[:, i], cur.vectors[:, i])) > 0.99


def test_correction_norm_constant_schedule():
    p = SystemParams(kappa1=0.2, kappa2=0.1)
    val = adiabatic_correction_norm(ConstantCoupling(4.0, 3.0, duration=2.0), p, 1.0)
    assert val < 1e-8


def test_correction_norm_trig_magnitude():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    val = adiabatic_correction_norm(TrigSchedule(5.0, math.pi / 2), p, math.pi / 4)
    assert 0.2 < val < 5.0
    # zero damping makes the frame-rotation term exactly (pi/2T)/sqrt(2)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)


def test_correction_norm_scaling_with_amplitude():
    # entries scale as |dg/dt| / g0 = (pi/2T), so val/g0 drops as 1/g_A^2 * dg/dt
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    val = adiabatic_correction_norm(TrigSchedule(50.0, math.pi / 2), p, math.pi / 4)
    assert val / 50.0 <= 0.05
    val5 = adiabatic_correction_norm(TrigSchedule(5.0, math.pi / 2), p, math.pi / 4)
    assert val == pytest.approx(val5, rel=1e-3)


def test_correction_norm_interior_only():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    with pytest.raises(SpectralError):
        adiabatic_correction_norm(TrigSchedule(5.0, 1.0), p, 0.0)
    with pytest.raises(SpectralError):
        adiabatic_correction_norm(TrigSchedule(5.0, 1.0), p, 1.0)


# -- LAPACK eigensolver: batched sweeps, exceptional points, properties ------

@pytest.mark.parametrize(
    "schedule",
    [TrigSchedule(5.0, math.pi / 2), TanhRampSchedule(5.0, 5.0, 1.0, 10.0), ConstantCoupling(4.0, 3.0, 2.0)],
    ids=["trig", "tanh", "constant"],
)
def test_sweep_equals_chained_eigensystem(schedule):
    # the batched sweep against the per-point loop it replaces
    p = SystemParams(kappa1=0.3, kappa2=0.1, gamma_m=0.01)
    times = np.linspace(0.0, schedule.duration, 400)
    swept = eigensystem_sweep(p, schedule, times)
    assert len(swept) == times.size
    ref = None
    for t, got in zip(times, swept):
        ref = eigensystem(dynamic_matrix_at(p, schedule, t), reference=ref)
        assert_allclose(got.lambdas, ref.lambdas, rtol=0.0, atol=1e-12)
        assert_allclose(got.vectors, ref.vectors, rtol=0.0, atol=1e-10)
        assert_allclose(got.inverse, ref.inverse, rtol=0.0, atol=1e-10)
    assert eigensystem_sweep(p, schedule, []) == []


def test_exceptional_point_rejected_and_its_neighbours_resolved():
    # kappa1 = 0.4, g2 = 0: the (a1, bm) pair has the exceptional point g1 = 0.1
    p = SystemParams(kappa1=0.4, kappa2=0.0, gamma_m=0.0)
    with pytest.raises(SpectralError, match="exceptional point"):
        eigensystem(drift(p, 0.1, 0.0))
    for g1 in (0.1 * (1.0 + 1e-9), 0.1 * (1.0 + 1e-4)):
        es = checked_eigensystem(drift(p, g1, 0.0))
        split = math.sqrt(g1 * g1 - 0.01)
        assert_allclose(es.lambdas, [-split - 0.1j, 0.0, split - 0.1j], rtol=0.0, atol=1e-12)


def test_top_phase_picks_the_same_entry_when_a_tie_moves_by_one_ulp():
    # entries 1 and 2 tie in modulus, as (bm, a2) do on the trig ramp at t = 0;
    # the first entry within 8 eps of the largest wins on either side of the tie
    for tied in (5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 6.0)):
        for column in ([1.0, 3.0 + 4.0j, 1j * tied], [1.0, -tied, 3.0 - 4.0j]):
            v = np.array(column)
            unit = v.conj() / np.abs(v)
            assert _top_phase(v) == unit[1]
            # reversed, the other tied entry comes first
            assert_array_equal(_top_phase(np.column_stack([v, v[::-1]])), unit[1:])
    # and so does every eigenvector of the ramp's first drift, lossless or damped
    for p in (SystemParams(0.0, 0.0, 0.0), SystemParams(0.01, 0.02, 1e-4), SystemParams(0.1, 0.1, 1e-3)):
        v = eigensystem(dynamic_matrix_at(p, TrigSchedule(5.0, 1.0), 0.0)).vectors
        assert_array_equal(v[0, 2], abs(v[0, 2]))
        assert_array_equal(v[1, :2], abs(v[1, :2]))


_rates = st.floats(0.0, 1.0)


@st.composite
def _sweeps(draw):
    params = SystemParams(kappa1=draw(_rates), kappa2=draw(_rates), gamma_m=draw(_rates))
    g = draw(st.floats(2.0, 10.0))
    if draw(st.booleans()):
        schedule = TrigSchedule(g, draw(st.floats(0.5, 5.0)))
    else:
        duration = draw(st.floats(1.0, 20.0))
        schedule = TanhRampSchedule(g, draw(st.floats(0.0, duration)), draw(st.floats(0.2, 5.0)), duration)
    return params, schedule


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_sweeps())
def test_sweep_properties(sweep):
    params, schedule = sweep
    times = np.linspace(0.0, schedule.duration, 200)
    systems = eigensystem_sweep(params, schedule, times)
    trace = -0.5j * (params.kappa1 + params.kappa2 + params.gamma_m)
    for t, es in zip(times, systems):
        m = dynamic_matrix_at(params, schedule, t)
        scale = max(np.linalg.norm(m), 1.0)
        residuals = np.linalg.norm(m @ es.vectors - es.vectors * es.lambdas, axis=0)
        assert residuals.max() <= 1e-10 * scale
        assert np.linalg.norm(es.vectors @ es.inverse - np.eye(3)) <= 1e-10
        assert abs(es.lambdas.sum() - trace) <= 1e-12 * scale
    for prev, cur in zip(systems, systems[1:]):
        assert np.abs(np.einsum("ij,ij->j", prev.vectors.conj(), cur.vectors)).min() >= 0.5
