"""The RK4 moment kernel against a frozen copy of the plain-formula kernel.

_reference_samples below is the kernel as it stood before the moments moved
into one buffer and each stage became three stacked products.  Every sample
of gaussian._rk4_samples must be byte-equal to it, signed zeros included,
and N and A must stay exactly Hermitian and symmetric: the folded products
are bitwise only under that precondition.

The accuracy oracle bounds how far the program's F_numeric and delta_F of
the bundled Fig. 1 sweeps are from the extended-precision reference that
tests/reference/make_fig1_reference.py computes with mpmath.
"""

import math

import numpy as np
import pytest

from fig1_reference import CONFIGS, DELTA_F_CONFIGS, column, program_fidelities
from omtransfer import gaussian
from omtransfer.gaussian import embed_initial, make_squeezed_coherent
from omtransfer.model import (
    ConstantCoupling,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
)

# -- frozen reference kernel ---------------------------------------------------

def _damping_and_diffusion(params_seq):
    damping = np.zeros((len(params_seq), 3, 3), dtype=complex)
    diffusion = np.zeros_like(damping)
    damping[:, [0, 1, 2], [0, 1, 2]] = [
        [-0.5j * p.kappa1, -0.5j * p.gamma_m, -0.5j * p.kappa2] for p in params_seq
    ]
    diffusion[:, 1, 1] = [p.gamma_m * p.n_th for p in params_seq]
    return damping, diffusion


def _drift(damping, schedule, t):
    g1, g2 = schedule.values(min(max(t, 0.0), schedule.duration))
    m = damping.copy()
    m[:, 0, 1] = m[:, 1, 0] = g1
    m[:, 1, 2] = m[:, 2, 1] = g2
    return m


def _derivative(m, diffusion, mean, normal, anomalous):
    return (
        -1j * (m @ mean),
        1j * (m.conj() @ normal) - 1j * (normal @ m) + diffusion,
        -1j * (m @ anomalous + anomalous @ m),
    )


def _shifted(state, c, d):
    return state[0] + c * d[0], state[1] + c * d[1], state[2] + c * d[2]


def _reference_samples(mean, normal, anomalous, params_seq, schedule, t_final, n_steps, n_samples):
    damping, diffusion = _damping_and_diffusion(params_seq)
    h = t_final / n_steps
    w = h / 6.0
    record_every = max(1, n_steps // max(1, n_samples - 1))
    state = (mean[..., None], normal, anomalous)
    for k in range(n_steps):
        t = k * h
        k1 = _derivative(_drift(damping, schedule, t), diffusion, *state)
        m_half = _drift(damping, schedule, t + 0.5 * h)
        k2 = _derivative(m_half, diffusion, *_shifted(state, 0.5 * h, k1))
        k3 = _derivative(m_half, diffusion, *_shifted(state, 0.5 * h, k2))
        k4 = _derivative(_drift(damping, schedule, t + h), diffusion, *_shifted(state, h, k3))
        mean = state[0] + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        normal = state[1] + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        anomalous = state[2] + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        normal = 0.5 * (normal + normal.conj().swapaxes(1, 2))
        anomalous = 0.5 * (anomalous + anomalous.swapaxes(1, 2))
        state = (mean, normal, anomalous)
        if (k + 1) % record_every == 0 and k + 1 < n_steps:
            yield (k + 1) * h, mean[..., 0], normal, anomalous
    yield t_final, mean[..., 0], normal, anomalous


# -- bitwise agreement ---------------------------------------------------------

COHERENT = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
SQUEEZED = embed_initial(make_squeezed_coherent(0.7 - 0.2j, 0.4, 0.3), 1.5)
VACUUM_SQUEEZED = embed_initial(make_squeezed_coherent(0.0, 0.6, 1.1), 0.0)
HOT = dict(gamma_m=2e-4, n_th=100.0)
QUIET = dict(gamma_m=0.0, n_th=0.0)

SCHEDULES = {
    "trig": TrigSchedule(5.0, math.pi / 2),
    "tanh": TanhRampSchedule(g_max=4.0, center=1.0, width=0.3, duration=2.0),
    "constant": ConstantCoupling(1.5, -0.8, duration=2.0),
    "piecewise": PiecewiseLinearSchedule((0.0, 0.7, 1.3, 2.0), (0.0, 3.0, 3.0, 4.0), (-4.0, -3.0, -1.0, 0.0)),
}

STACKED = [
    (COHERENT, SystemParams(kappa1=0.0, kappa2=0.0, **HOT)),
    (SQUEEZED, SystemParams(kappa1=0.3, kappa2=0.1, **HOT)),
    (VACUUM_SQUEEZED, SystemParams(kappa1=1.0, kappa2=0.0, **HOT)),
    (SQUEEZED, SystemParams(kappa1=0.7, kappa2=0.4, gamma_m=0.05, n_th=3.0)),
    (COHERENT, SystemParams(kappa1=0.0, kappa2=0.0, **QUIET)),  # quiet-bath twins
    (SQUEEZED, SystemParams(kappa1=0.3, kappa2=0.1, **QUIET)),
    (VACUUM_SQUEEZED, SystemParams(kappa1=1.0, kappa2=0.0, **QUIET)),
]


def _assert_kernels_agree(rows, schedule, n_steps, n_samples):
    stacks = [np.array([getattr(st, f) for st, _ in rows]) for f in ("mean", "normal", "anomalous")]
    args = ([p for _, p in rows], schedule, schedule.duration, n_steps, n_samples)
    got, seen = [], []
    for sample in gaussian._rk4_samples(*stacks, *args):
        got.append(sample)
        seen.append([array.tobytes() for array in sample[1:]])
    want = list(_reference_samples(*stacks, *args))
    assert len(got) == len(want)
    for (t, *arrays), (t_ref, *ref), bytes_at_yield in zip(got, want, seen):
        assert t == t_ref
        for array, expected, at_yield in zip(arrays, ref, bytes_at_yield):
            assert array.shape == expected.shape
            assert array.tobytes() == expected.tobytes() == at_yield, f"t = {t}"
        _, normal, anomalous = arrays
        assert np.array_equal(normal, normal.conj().swapaxes(1, 2))
        assert np.array_equal(anomalous, anomalous.swapaxes(1, 2))


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_single_row_is_bitwise_the_reference(name):
    # 1,000 steps span three drift chunks of 341 steps
    _assert_kernels_agree([STACKED[1]], SCHEDULES[name], 1000, 101)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_stacked_rows_are_bitwise_the_reference(name):
    _assert_kernels_agree(STACKED, SCHEDULES[name], 250, 26)


def test_squeezed_vacuum_with_diffusion_is_bitwise_the_reference():
    rows = [(VACUUM_SQUEEZED, SystemParams(kappa1=0.4, kappa2=0.2, gamma_m=0.3, n_th=5.0))]
    _assert_kernels_agree(rows, SCHEDULES["tanh"], 700, 8)


# -- accuracy oracle -----------------------------------------------------------

# measured against the mpmath reference: F within 4.9e-13 (fig1b_squeezed) and delta_F within
# 8.9e-12 (fig1c_squeezed) relative; a 2x and a 1.7x margin
F_RTOL, DELTA_F_RTOL = 1e-12, 1.5e-11


@pytest.mark.parametrize("name", CONFIGS)
def test_fig1_fidelities_are_close_to_a_converged_reference(name):
    f_num, delta_f = program_fidelities(name)
    np.testing.assert_allclose(f_num, column(name, "F"), rtol=F_RTOL, atol=0.0)
    if name in DELTA_F_CONFIGS:
        np.testing.assert_allclose(delta_f, column(name, "delta_F"), rtol=DELTA_F_RTOL, atol=0.0)


def test_doubled_diffusion_fails_the_accuracy_oracle(monkeypatch):
    f_ref, delta_ref = column("fig1c", "F"), column("fig1c", "delta_F")
    diffusion = gaussian._diffusion
    monkeypatch.setattr(gaussian, "_diffusion", lambda params_seq: 2.0 * diffusion(params_seq))
    f_num, delta_f = program_fidelities.__wrapped__("fig1c")
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(f_num, f_ref, rtol=F_RTOL, atol=0.0)
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(delta_f, delta_ref, rtol=DELTA_F_RTOL, atol=0.0)
    # doubling the diffusion roughly doubles delta_F
    assert np.abs(delta_f / delta_ref - 2.0).max() < 0.01


# measured against the mpmath reference: gaussian.integrate's F within 1.3e-15 and delta_F within
# 1.2e-12 relative on fig1c, 2.5e-15 and 2.4e-12 on fig1c_squeezed; the batched RK4 above is
# 4.8e-13 and 8.9e-12 away
def test_integrate_fig1c_rows_are_close_to_the_converged_reference():
    for name in DELTA_F_CONFIGS:
        f_num, delta_f = program_fidelities(name, serial=True)
        np.testing.assert_allclose(f_num, column(name, "F"), rtol=1e-14, atol=0.0, err_msg=name)
        np.testing.assert_allclose(delta_f, column(name, "delta_F"), rtol=5e-12, atol=0.0, err_msg=name)
