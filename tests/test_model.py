import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from omtransfer.model import (
    _GL3_NODES,
    ConstantCoupling,
    ModelError,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
    adiabaticity,
    _magnus6_block_exp,
    _magnus6_block_omega,
    _mul,
    drift_stack,
    dynamic_matrix_at,
)


def test_zero_damping_matrix():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    m = drift_stack(p.damping_diagonal, 3.0, 4.0)
    assert_allclose(m.imag, np.zeros((3, 3)), atol=0.0)
    expected = np.array([[0.0, 3.0, 0.0], [3.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    assert_allclose(m.real, expected, atol=0.0)


def test_fig2_damping_matrix():
    # (kappa1, kappa2, gamma_m) = (0.096, 0.054, 2e-4) -> diagonal -i(0.048, 0.0001, 0.027)
    p = SystemParams(kappa1=0.096, kappa2=0.054, gamma_m=2e-4)
    m = drift_stack(p.damping_diagonal, 4.0, 3.0)
    assert_allclose(np.diag(m), [-0.048j, -0.0001j, -0.027j], rtol=0.0, atol=1e-15)
    assert m[0, 1] == m[1, 0] == 4.0
    assert m[1, 2] == m[2, 1] == 3.0


def test_matrix_structure_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k1, k2, gm = rng.uniform(0.0, 2.0, size=3)
        g1, g2 = rng.uniform(-5.0, 5.0, size=2)
        p = SystemParams(kappa1=k1, kappa2=k2, gamma_m=gm)
        m = drift_stack(p.damping_diagonal, g1, g2)
        assert_allclose(m, m.T, atol=0.0)  # complex symmetric by construction
        off = m - np.diag(np.diag(m))
        assert_allclose(off.imag, np.zeros((3, 3)), atol=0.0)
        assert_allclose(np.diag(m).imag, [-k1 / 2, -gm / 2, -k2 / 2], atol=0.0)
        assert_allclose(np.diag(m).real, np.zeros(3), atol=0.0)
        assert m[0, 2] == m[2, 0] == 0.0


def test_params_validation():
    with pytest.raises(ModelError):
        SystemParams(kappa1=-0.1, kappa2=0.0)
    with pytest.raises(ModelError):
        SystemParams(kappa1=0.0, kappa2=0.0, n_th=-1.0)
    # resolved-sideband hard failure
    with pytest.raises(ModelError):
        SystemParams(kappa1=2.0, kappa2=0.0, omega_m=1.0)
    with pytest.warns(UserWarning):
        SystemParams(kappa1=0.5, kappa2=0.0, omega_m=1.0)
    # comfortably sideband-resolved: no warning
    SystemParams(kappa1=0.05, kappa2=0.05, gamma_m=0.01, omega_m=1.0)


def test_sideband_warning_names_the_caller():
    # not the dataclass-generated __init__ ("<string>") nor dataclasses.replace
    with pytest.warns(UserWarning, match="marginally valid") as record:
        params = SystemParams(kappa1=0.5, kappa2=0.0, omega_m=1.0)
        dataclasses.replace(params, kappa2=0.1)
    assert [w.filename for w in record] == [__file__, __file__]


def test_two_photon_resonance_gate():
    SystemParams(kappa1=0.1, kappa2=0.1, omega_m=10.0, detuning1=-10.0, detuning2=-10.0)
    with pytest.raises(ModelError):
        SystemParams(kappa1=0.1, kappa2=0.1, omega_m=10.0, detuning1=-10.0, detuning2=-9.5)
    with pytest.raises(ModelError):
        SystemParams(kappa1=0.1, kappa2=0.1, detuning1=-10.0, detuning2=-10.0)


def test_trig_schedule_endpoints():
    sched = TrigSchedule(5.0, math.pi / 2)
    assert_allclose(sched.values(0.0) + sched.derivatives(0.0), (0.0, -5.0, 5.0, 0.0), atol=1e-15)
    assert_allclose(
        sched.values(math.pi / 2) + sched.derivatives(math.pi / 2), (5.0, 0.0, 0.0, 5.0), atol=1e-15
    )
    # generalized duration reproduces the same shape
    sched2 = TrigSchedule(5.0, 3.0)
    assert_allclose(sched2.values(0.0), (0.0, -5.0), atol=1e-15)
    assert_allclose(sched2.values(3.0), (5.0, 0.0), atol=1e-15)


def test_constant_schedule():
    sched = ConstantCoupling(4.0, 3.0)
    for t in (0.0, 1.0, 123.0):
        assert sched.values(t) + sched.derivatives(t) == (4.0, 3.0, 0.0, 0.0)


def test_domain_error():
    sched = TrigSchedule(5.0, math.pi / 2)
    for t in (-0.01, math.pi / 2 + 0.01):
        with pytest.raises(ModelError):
            sched.values(t)
        with pytest.raises(ModelError):
            sched.derivatives(t)


@pytest.mark.parametrize(
    "sched",
    [
        TrigSchedule(5.0, math.pi / 2),
        TanhRampSchedule(g_max=4.0, center=2.0, width=0.5, duration=4.0),
    ],
)
def test_derivatives_match_finite_differences(sched):
    rng = np.random.default_rng(7)
    scale = max(abs(v) for v in sched.values(sched.duration / 2)) + 1.0
    h = 1e-6
    for _ in range(100):
        t = rng.uniform(0.05, 0.95) * sched.duration
        g1p, g2p = sched.values(t + h)
        g1m, g2m = sched.values(t - h)
        d1, d2 = sched.derivatives(t)
        assert abs(d1 - (g1p - g1m) / (2 * h)) < 1e-6 * scale
        assert abs(d2 - (g2p - g2m) / (2 * h)) < 1e-6 * scale


def test_piecewise_linear_values_and_slopes():
    sched = PiecewiseLinearSchedule(
        times=(0.0, 1.0, 3.0), g1_values=(0.0, 2.0, 2.0), g2_values=(-4.0, -2.0, 0.0)
    )
    assert sched.duration == 3.0
    assert_allclose(sched.values(0.5), (1.0, -3.0))
    assert_allclose(sched.derivatives(0.5), (2.0, 2.0))
    # breakpoint takes the right-hand slope, the end point the left-hand one
    assert_allclose(sched.derivatives(1.0), (0.0, 1.0))
    assert_allclose(sched.derivatives(3.0), (0.0, 1.0))


def test_adiabaticity_values():
    # |dg/dt| = 5 and g0 = 5 on the interior grid
    assert_allclose(adiabaticity(TrigSchedule(5.0, math.pi / 2)), 0.2, rtol=1e-5)
    assert_allclose(adiabaticity(TrigSchedule(50.0, math.pi / 2)), 0.02, rtol=1e-5)
    assert adiabaticity(ConstantCoupling(4.0, 3.0)) == 0.0


def test_adiabaticity_closed_form():
    # ratio = (pi / 2T) / g_A for the trig ramp, for any amplitude and duration
    for g_a, dur in [(2.0, 1.0), (7.0, 4.0), (5.0, math.pi / 2)]:
        assert_allclose(adiabaticity(TrigSchedule(g_a, dur)), (math.pi / (2 * dur)) / g_a, rtol=1e-5)


def _adiabaticity_on_one_grid(schedule, n_samples=1001):
    """adiabaticity as it was before kinks split its grid: one interior grid over the whole span."""
    span = schedule.duration if math.isfinite(schedule.duration) else 1.0
    t = span * np.arange(1, n_samples + 1) / (n_samples + 1)
    (g1, g2), (d1, d2) = schedule.values(t), schedule.derivatives(t)
    return float((np.maximum(np.abs(d1), np.abs(d2)) / (g1 * g1 + g2 * g2)).max())


def test_adiabaticity_samples_every_piece_between_kinks():
    # a 0.005-wide ramp from 0.5 to 20 between two points of a 1,001-point grid of [0, 10]:
    # |dg/dt| / g0^2 peaks at 3900 / 0.5 = 7800 at the ramp's foot, a kink, and one grid saw 7.65
    start = 5.0 + 0.1 * 10.0 / 256
    times = (0.0, start, start + 0.005, start + 0.025, start + 0.03, 10.0)
    burst = PiecewiseLinearSchedule(times, (0.5, 0.5, 20.0, 20.0, 0.5, 0.5), (-0.5, -0.5, -20.0, -20.0, -0.5, -0.5))
    assert 0.9 * 7800.0 <= adiabaticity(burst) <= 7800.0 * (1.0 + 1e-9)
    assert _adiabaticity_on_one_grid(burst) < 10.0
    # schedules without kinks keep the one grid bit for bit
    for schedule in (TrigSchedule(5.0, math.pi / 2), TrigSchedule(2.0, 7.0), TanhRampSchedule(4.0, 2.0, 0.5, 4.0),
                     ConstantCoupling(4.0, 3.0), ConstantCoupling(4.0, 3.0, duration=2.0)):
        for n in (1, 7, 1001):
            assert adiabaticity(schedule, n) == _adiabaticity_on_one_grid(schedule, n)


def test_narrow_tanh_ramp_derivative_does_not_overflow():
    # the first sample sits at x = (t - center) / width = -5000, where cosh x ** 2 overflows
    narrow = TanhRampSchedule(5.0, 10.0, 0.002, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert adiabaticity(narrow) == 100.0
        assert narrow.derivatives(0.0) == (0.0, 0.0)
    wide = TanhRampSchedule(4.0, 2.5, 0.7, 5.0)
    t = np.linspace(0.0, 5.0, 1001)
    assert_allclose(wide.derivatives(t)[0], 2.0 / (0.7 * np.cosh((t - 2.5) / 0.7) ** 2), rtol=2e-15, atol=0.0)


def test_kinks_are_the_interior_breakpoints():
    sched = PiecewiseLinearSchedule((0.0, 1.0, 2.0, 3.5), (0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0))
    assert sched.kinks(0.0, 3.5).tolist() == [1.0, 2.0]
    assert sched.kinks(1.0, 3.0).tolist() == [2.0]  # open interval
    assert sched.kinks(2.5, 3.5).size == 0
    for smooth in (TrigSchedule(5.0, 1.0), TanhRampSchedule(4.0, 2.0, 0.5, 4.0), ConstantCoupling(1.0, 2.0)):
        assert smooth.kinks(0.0, 1.0).size == 0


def test_probe_times_are_the_kinks_and_each_pieces_interior():
    sched = PiecewiseLinearSchedule((0.0, 1.0, 2.0, 3.5), (0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 0.0))
    assert sched.probe_times(3.5, 3).tolist() == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.375, 2.75, 3.125]
    assert sched.probe_times(1.5, 1).tolist() == [0.5, 1.0, 1.25]
    assert TrigSchedule(5.0, 2.0).probe_times(2.0, 3).tolist() == [0.5, 1.0, 1.5]
    assert ConstantCoupling(1.0, 2.0).probe_times(7.0, 1001).tolist() == [7.0 * k / 1002 for k in range(1, 1002)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: SystemParams(math.nan, math.inf),
        lambda: SystemParams(0.1, 0.1, n_th=math.inf),
        lambda: SystemParams(0.1, 0.1, omega_m=math.inf),
        lambda: TrigSchedule(math.nan, 1.0),
        lambda: TrigSchedule(1.0, math.inf),
        lambda: ConstantCoupling(math.nan, 1.0),
        lambda: ConstantCoupling(1.0, -math.inf),
        lambda: ConstantCoupling(1.0, 1.0, duration=math.nan),
        lambda: TanhRampSchedule(1.0, math.nan, 1.0, 2.0),
        lambda: PiecewiseLinearSchedule((0.0, math.inf), (1.0, 1.0), (0.0, 0.0)),
        lambda: PiecewiseLinearSchedule((0.0, 1.0), (1.0, math.nan), (0.0, 0.0)),
    ],
)
def test_non_finite_numbers_are_rejected(build):
    with pytest.raises(ModelError, match="must be finite|positive duration"):
        build()


def test_constant_coupling_may_last_forever():
    assert ConstantCoupling(4.0, 3.0, duration=math.inf).duration == math.inf


def test_adiabaticity_zero_g0_error():
    sched = PiecewiseLinearSchedule(
        times=(0.0, 1.0, 2.0), g1_values=(1.0, 0.0, 1.0), g2_values=(0.0, 0.0, 0.0)
    )
    with pytest.raises(ModelError, match="vanishes"):
        adiabaticity(sched, n_samples=999)


def test_dynamic_matrix_at_couplings():
    p = SystemParams(kappa1=0.1, kappa2=0.2)
    sched = TrigSchedule(5.0, math.pi / 2)
    m = dynamic_matrix_at(p, sched, 0.3)
    assert m.shape == (3, 3) and m.dtype == complex
    g1, g2 = sched.values(0.3)
    assert m[0, 1] == m[1, 0] == g1
    assert m[1, 2] == m[2, 1] == g2
    assert_allclose(np.diag(m), [-0.05j, 0.0, -0.1j], rtol=0.0, atol=0.0)


# -- frozen full-matrix reference kernel -----------------------------------------
# The (..., n, n) Magnus-6 kernel as it stood before generators were taken block by block.

def _reference_omega(a, h):
    h = np.asarray(h)[..., None, None]
    a1, a2, a3 = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    b1 = h * a2
    b2 = (math.sqrt(15.0) / 3.0) * h * (a3 - a1)
    b3 = (10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)

    def comm(x, y):
        return x @ y - y @ x

    c1 = comm(b1, b2)
    c2 = comm(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + comm(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def _reference_exp(a, h):
    x = _reference_omega(a, h)
    s = np.maximum(np.frexp(np.abs(x).sum(-2).max(-1) * 4.0)[1], 0)
    x = x * np.ldexp(1.0, -s)[..., None, None]
    eye = np.eye(x.shape[-1])
    e = eye + x / 12.0
    for k in range(11, 0, -1):
        e = eye + (x @ e) / k
    for j in range(int(s.max(initial=0))):
        more = s > j
        e[more] = e[more] @ e[more]
    return e


def _full(x, y, z):
    """(S, n + m, n + m) matrices from step-last (n, n, S), (n, m, S) and (m, m, S) blocks."""
    n, size = x.shape[0], x.shape[0] + z.shape[0]
    full = np.zeros((x.shape[-1], size, size), dtype=complex)
    full[:, :n, :n], full[:, :n, n:], full[:, n:, n:] = (np.moveaxis(b, -1, 0) for b in (x, y, z))
    return full


def _random_blocks(rng, m, steps):
    """Random step-last X (3, 3, S), Y (3, m, S) and Z (m, m, S); Z = -X^H when m = 3, as in integrate."""
    def draw(rows, cols):
        return rng.normal(size=(rows, cols, steps)) + 1j * rng.normal(size=(rows, cols, steps))

    x, y = draw(3, 3), draw(3, m)
    return x, y, -x.conj().swapaxes(0, 1) if m == 3 else draw(m, m)


@pytest.mark.parametrize("n", [5, 6])
def test_magnus6_of_a_constant_generator_is_expm(n):
    # block generators of the pulse path (3 + 2) and of integrate's Van Loan form (3 + 3, Z = -X^H)
    rng = np.random.default_rng(n)
    # 1-norms of h A from about 0.01 to 300: up to 11 squarings of the Taylor polynomial
    scale = np.logspace(-2.5, 1.5, 16)
    x, y, z = (scale * b for b in _random_blocks(rng, n - 3, 16))
    h = rng.uniform(0.5, 2.0, size=16)
    nodes = [np.repeat(b[None], 3, axis=0) for b in (x, z)]
    omega = _magnus6_block_omega(nodes[0], y, nodes[1], h)
    assert all(np.array_equal(o, h * b) for o, b in zip(omega, (x, y, z)))
    got = _full(*_magnus6_block_exp(nodes[0], y, nodes[1], h))
    for g, hi, ai in zip(got, h, _full(x, y, z)):
        want = expm(hi * ai)
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


def test_magnus6_step_is_sixth_order():
    # A(t) = A0 + t A1 + t^2 A2 with Y constant: one step's error must fall by about 2^7 when h halves
    for m in (3, 2):
        rng = np.random.default_rng(3)
        (x0, y, z0), (x1, _, z1), (x2, _, z2) = (
            [b[..., 0] for b in _random_blocks(rng, m, 1)] for _ in range(3)
        )
        n = 3 + m

        def blocks(t):
            return x0 + t * x1 + t * t * x2, z0 + t * z1 + t * t * z2

        def error(h):
            def rhs(t, v):
                x, z = blocks(t)
                a = _full(x[..., None], y[..., None], z[..., None])[0]
                d = (a @ (v[: n * n] + 1j * v[n * n :]).reshape(n, n)).ravel()
                return np.concatenate([d.real, d.imag])

            v0 = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
            v = solve_ivp(rhs, (0.0, h), v0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
            want = (v[: n * n] + 1j * v[n * n :]).reshape(n, n)
            x, z = (np.stack(b)[..., None] for b in zip(*(blocks(t) for t in h * _GL3_NODES)))
            got = _full(*_magnus6_block_exp(x, y[..., None], z, h))[0]
            return np.abs(got - want).max()

        ratios = [error(h) / error(h / 2) for h in (0.2, 0.1)]
        assert all(2**6.5 < r < 2**7.5 for r in ratios), (m, ratios)


def test_block_kernel_matches_the_full_matrix_kernel_on_a_trajectory_chunk():
    # the first 1,024 steps of perfbench's trajectory_study seed-0 trig case, as integrate takes them
    params = SystemParams(kappa1=0.011751, kappa2=0.00962291, gamma_m=0.000123815, n_th=2.0)
    schedule = TrigSchedule(amplitude=1.0, duration=100.0)
    h = 100.0 / 10**4
    ts = (np.arange(1024) + _GL3_NODES[:, None]) * h
    b = 1j * drift_stack(params.damping_diagonal, *schedule.values(ts)).conj()  # (node, step, 3, 3)
    diffusion = np.zeros((3, 3))
    diffusion[1, 1] = params.gamma_m * params.n_th
    generator = np.zeros((3, 1024, 6, 6), dtype=complex)
    generator[..., :3, :3] = b
    generator[..., :3, 3:] = diffusion
    generator[..., 3:, 3:] = -b.conj().swapaxes(-1, -2)
    want = _reference_exp(np.moveaxis(generator, 0, 1), h)
    x = np.ascontiguousarray(np.moveaxis(b, 1, -1))
    got = _full(*_magnus6_block_exp(x, diffusion[..., None], np.ascontiguousarray(-x.conj().swapaxes(1, 2)), h))
    assert np.array_equal(want[:, 3:, :3], np.zeros((1024, 3, 3)))
    for rows, cols in ((slice(3), slice(3)), (slice(3), slice(3, 6)), (slice(3, 6), slice(3, 6))):
        block = want[:, rows, cols]
        assert np.abs(got[:, rows, cols] - block).max() <= 1e-14 * np.abs(block).max()


def _left_to_right(a, b):
    """sum over j of a[:, j] b[j], added left to right onto +0, each complex product from real parts unfused."""
    ar, ai, br, bi = a.real, np.imag(a), b.real, np.imag(b)
    re = im = 0.0
    for j in range(a.shape[1]):
        xr, xi = ar[:, j, None], ai[:, j, None]
        re = re + (xr * br[j] - xi * bi[j])
        im = im + (xr * bi[j] + xi * br[j])
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return re
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (complex, float), (float, complex)])
@pytest.mark.parametrize(
    "shapes",
    [
        ((3, 3, 64), (3, 3, 64)),
        ((3, 3, 1), (3, 3, 64)),  # S = 1 broadcasts on the left
        ((3, 3, 64), (3, 1, 1)),  # and on the right, as integrate's mean
        ((3, 3, 64), (3, 2, 64)),  # the pulse path's m = 2 block
        ((3, 2, 64), (2, 2, 64)),  # its k = 2 block
        ((2, 2, 64), (2, 2, 1)),
    ],
)
def test_mul_is_the_left_to_right_sum_bit_for_bit(dtypes, shapes):
    # the bit-equality holds for the layouts drawn here only: contiguous operands, an S
    # of 1 on either side, then a with its first two axes swapped and b with its step
    # axis reversed; nothing is claimed for others (with S = 1 and b transposed einsum
    # sums in another order, see model._mul).  The complex-frame tests of
    # test_real_gauge.py rest on this rule; a numpy whose einsum fuses multiply-adds,
    # or reorders the sum, fails here
    rng = np.random.default_rng(5)

    def draw(shape, dtype):
        v = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0.0)
        return v * np.logspace(-8, 8, shape[-1])

    a, b = (draw(s, d) for s, d in zip(shapes, dtypes))
    got = _mul(a, b)
    want = _left_to_right(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    # the same values through strided views, as integrate's transposed propagators
    a_view = np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
    assert _mul(a_view, b[..., ::-1]).tobytes() == _left_to_right(a, b[..., ::-1].copy()).tobytes()


def test_mul_sums_signed_zeros_onto_positive_zero():
    # einsum adds onto a zeroed output, so a sum of products that are all -0 is +0
    rng = np.random.default_rng(7)
    for dtypes in ((float, float), (complex, complex), (complex, float)):
        a = np.where(rng.random((3, 3, 32)) < 0.5, -0.0, 0.0).astype(dtypes[0])
        b = np.where(rng.random((3, 2, 32)) < 0.5, -0.0, 1.5).astype(dtypes[1])
        if dtypes[0] is complex:
            a.imag = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)
        got = _mul(a, b)
        assert got.tobytes() == _left_to_right(a, b).tobytes()
        assert not np.signbit(got.view(float)).any()
