import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.integrate import quad

from omtransfer.adiabatic import AdiabaticError, analytic_fidelity, f_integral, fs_bound
from omtransfer.gaussian import (
    embed_initial,
    gaussian_fidelity,
    integrate,
    make_squeezed_coherent,
    reduce_to_mode,
)
from omtransfer.model import PiecewiseLinearSchedule, SystemParams, TanhRampSchedule, TrigSchedule

FIG1 = TrigSchedule(5.0, math.pi / 2)


def test_f_integral_zero_damping():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    assert f_integral(p, FIG1, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_f_integral_fig1_analytic():
    # kappa2 = 0: f(0,T) = kappa1 * int cos^2 / 2 = kappa1 * pi / 8
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    assert f_integral(p, FIG1, 0.0, math.pi / 2) == pytest.approx(0.2 * math.pi / 8, abs=1e-10)


@pytest.mark.parametrize(
    "sched,T",
    [
        (FIG1, math.pi / 2),
        (TanhRampSchedule(g_max=5.0, center=2.0, width=0.4, duration=4.0), 4.0),
    ],
)
def test_f_integral_equal_kappas_collapses(sched, T):
    # integrand reduces to kappa/2 whenever kappa1 = kappa2, for any schedule
    p = SystemParams(kappa1=0.3, kappa2=0.3)
    assert f_integral(p, sched, 0.0, T) == pytest.approx(0.3 * T / 2, abs=1e-9)


def _random_case(rng):
    kind = rng.integers(3)
    if kind == 0:
        sched = TrigSchedule(rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0))
    elif kind == 1:
        duration = rng.uniform(1.0, 20.0)
        sched = TanhRampSchedule(rng.uniform(0.5, 10.0), rng.uniform(0.0, duration), rng.uniform(0.1, 4.0), duration)
    else:
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 3.0, rng.integers(1, 6)))])
        g1 = rng.uniform(0.2, 5.0, times.size) * rng.choice([-1.0, 1.0])
        sched = PiecewiseLinearSchedule(tuple(times), tuple(g1), tuple(rng.uniform(-5.0, 5.0, times.size)))
    params = SystemParams(kappa1=rng.uniform(0.0, 1.0), kappa2=rng.uniform(0.0, 1.0))
    t, T = np.sort(rng.uniform(0.0, sched.duration, 2))
    if rng.random() < 0.5:
        t, T = 0.0, sched.duration
    tol = 10.0 ** rng.uniform(-13.0, -6.0)
    return params, sched, float(t), float(T), tol


def _quad_f(params, schedule, t, T):
    """f(t,T) by scipy's adaptive quad, told the schedule's breakpoints."""

    def rate(s):
        g1, g2 = schedule.values(s)
        return (params.kappa2 * g1 * g1 + params.kappa1 * g2 * g2) / (2.0 * (g1 * g1 + g2 * g2))

    inner = [b for b in getattr(schedule, "times", ()) if t < b < T]
    value, _ = quad(rate, t, T, points=inner or None, epsabs=1e-13, epsrel=0.0, limit=500)
    return value


def test_f_integral_matches_scipy_quad():
    rng = np.random.default_rng(20110)
    kinds = set()
    for _ in range(150):
        params, sched, t, T, tol = _random_case(rng)
        kinds.add(type(sched))
        assert abs(f_integral(params, sched, t, T, tol) - _quad_f(params, sched, t, T)) <= 1e-10
    assert len(kinds) == 3


@pytest.mark.parametrize(
    "k1,k2,amplitude,T",
    [(0.2, 0.0, 5.0, math.pi / 2), (0.3, 0.1, 5.0, math.pi / 2), (0.7, 0.05, 2.0, 10.0), (0.01, 0.9, 12.0, 0.3)],
)
def test_f_integral_trig_ramp_closed_form(k1, k2, amplitude, T):
    # g2^2 / g0^2 = cos^2(pi t / 2T) averages 1/2 over the ramp
    got = f_integral(SystemParams(kappa1=k1, kappa2=k2), TrigSchedule(amplitude, T), 0.0, T)
    assert got == pytest.approx(T * (k1 + k2) / 4.0, rel=1e-14, abs=0.0)


def _sin2_integral_tanh(ramp, t, T):
    """integral of g2^2 / g0^2 over (t, T) for a tanh ramp, in closed form.

    With u = tanh x, x = (s - center)/width: g2^2 / g0^2 = (1 - u)^2 / 2(1 + u^2)
    and ds = width du / (1 - u^2), so the integrand is width (1 - u) / 2(1 + u)(1 + u^2)
    in u, with antiderivative width (ln(1 + u) - ln(1 + u^2) / 2) / 2.
    ln(1 + tanh x) = ln 2 - ln(1 + e^-2x) keeps it finite far below the ramp.
    """

    def antiderivative(s):
        x = (s - ramp.center) / ramp.width
        return math.log(2.0) - np.logaddexp(0.0, -2.0 * x) - 0.5 * math.log1p(math.tanh(x) ** 2)

    return 0.5 * ramp.width * (antiderivative(T) - antiderivative(t))


def _sin2_integral_piecewise(times, g1, g2_values):
    """integral of g2^2 / (g1^2 + g2^2) for constant g1 and piecewise-linear g2, in closed form."""
    total = 0.0
    for ta, tb, ua, ub in zip(times, times[1:], g2_values, g2_values[1:]):
        span = tb - ta
        if ua == ub:
            total += span * ua * ua / (g1 * g1 + ua * ua)
        else:
            # atan(ub/g1) - atan(ua/g1), without cancellation on short segments
            total += span - g1 * span / (ub - ua) * math.atan2(g1 * (ub - ua), g1 * g1 + ua * ub)
    return total


@pytest.mark.parametrize(
    "times,g2",
    [
        ((0.0, 0.7, 1.5, 3.2, 4.0, 6.5), (-4.0, -0.5, 2.0, 2.0, -1.0, 3.0)),
        # 10^4 segments: two panels each already pass the 2^14 panel cap
        (tuple(np.linspace(0.0, 6.5, 10_001)), tuple(3.0 * np.cos(np.linspace(0.0, 6.5, 10_001)))),
    ],
)
def test_f_integral_piecewise_closed_form(times, g2):
    # g1 is constant, so g2^2 / g0^2 has a kink at every breakpoint; the
    # panels split there, and each segment integrates to an arctangent
    g1 = 1.3
    sched = PiecewiseLinearSchedule(times, (g1,) * len(times), g2)
    p = SystemParams(kappa1=0.6, kappa2=0.15)
    want = 0.5 * p.kappa2 * 6.5 + 0.5 * (p.kappa1 - p.kappa2) * _sin2_integral_piecewise(times, g1, g2)
    assert f_integral(p, sched, 0.0, 6.5) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_f_integral_panel_cap():
    # an unreachable tolerance doubles the panels up to the cap and raises;
    # a ramp 10^4 times narrower than its duration converges below the cap,
    # also at an interval end, which Gauss-Legendre's all-interior nodes
    # miss until n ~ 100 while their sums agree to 1e-13
    p = SystemParams(kappa1=0.7, kappa2=0.1)
    with pytest.raises(AdiabaticError, match="did not converge within 16384 panels"):
        f_integral(p, FIG1, 0.0, math.pi / 2, tol=-1.0)
    for center in (7.3, 0.0, 19.999):
        ramp = TanhRampSchedule(g_max=5.0, center=center, width=0.002, duration=20.0)
        sin2 = _sin2_integral_tanh(ramp, 0.0, 20.0)
        want = 0.5 * p.kappa2 * 20.0 + 0.5 * (p.kappa1 - p.kappa2) * sin2
        assert f_integral(p, ramp, 0.0, 20.0) == pytest.approx(want, rel=0.0, abs=1e-10)


def test_f_integral_cap_bounds_memory():
    # the largest sum tried has 2^14 panels of 16 nodes: 13.1 MB traced here
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(AdiabaticError, match="did not converge within 16384 panels"):
            f_integral(SystemParams(0.2, 0.1), FIG1, 0.0, math.pi / 2, tol=-1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.0e7


def test_f_integral_partial_interval():
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    full = f_integral(p, FIG1, 0.0, math.pi / 2)
    a = f_integral(p, FIG1, 0.0, 0.7)
    b = f_integral(p, FIG1, 0.7, math.pi / 2)
    assert a + b == pytest.approx(full, abs=1e-9)
    with pytest.raises(AdiabaticError):
        f_integral(p, FIG1, 1.0, 0.5)


def test_mean_transfer_amplitude():
    # the adiabatic-limit mean of a2 is exp(-f(0,T)) <a1(0)>
    p0 = SystemParams(kappa1=0.0, kappa2=0.0)
    assert cmath.exp(-f_integral(p0, FIG1, 0.0, math.pi / 2)) == pytest.approx(1.0)
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    expected = math.exp(-0.2 * math.pi / 8)
    got = cmath.exp(-f_integral(p, FIG1, 0.0, math.pi / 2))
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.92446, abs=1e-5)


def test_fs_bound_values():
    sched = FIG1
    same = SystemParams(kappa1=0.3, kappa2=0.3, gamma_m=1e-3, n_th=10.0)
    assert fs_bound(same, sched, math.pi / 2) == 0.0
    p = SystemParams(kappa1=1.0, kappa2=0.0, gamma_m=2e-4, n_th=100.0)
    expected = 2e-4 * 201.0 * (math.pi / 2) * (1.0 / 20.0) ** 2
    got = fs_bound(p, sched, math.pi / 2)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(1.579e-4, rel=1e-3)
    cold = SystemParams(kappa1=1.0, kappa2=0.0, gamma_m=0.0, n_th=0.0)
    assert fs_bound(cold, sched, math.pi / 2) == 0.0


_VALUES_CALLS = []


@dataclasses.dataclass(frozen=True)
class _CountedRamp(TanhRampSchedule):
    def values(self, t):
        _VALUES_CALLS.append(np.array(t))
        return super().values(t)


@pytest.mark.parametrize(
    "sched,T",
    [
        (TrigSchedule(3.0, 2.0), 2.0),
        (TanhRampSchedule(4.0, 2.5, 0.7, 5.0), 5.0),
        (TanhRampSchedule(4.0, 2.5, 0.7, 5.0), 4.0),
        (PiecewiseLinearSchedule((0.0, 1.0, 3.0), (0.5, 2.0, 3.0), (-3.0, -1.0, -0.2)), 3.0),
    ],
)
def test_fs_bound_takes_g0_min_of_one_grid_call(sched, T):
    p = SystemParams(kappa1=1.0, kappa2=0.2, gamma_m=2e-3, n_th=5.0)
    counted = _CountedRamp(4.0, 2.5, 0.7, 5.0)
    _VALUES_CALLS.clear()
    fs_bound(p, counted, 5.0)
    assert len(_VALUES_CALLS) == 1 and _VALUES_CALLS[0].shape == (1001,)
    assert_array_equal(_VALUES_CALLS[0], [5.0 * k / 1002 for k in range(1, 1002)])
    g0_min = min(sched.g0(T * k / 1002) for k in range(1, 1002))
    expected = 2e-3 * 11.0 * T * (0.8 / (4.0 * g0_min)) ** 2
    assert fs_bound(p, sched, T) == expected


def test_f_integral_one_schedule_call_per_panel_count():
    counted = _CountedRamp(4.0, 1.7, 0.05, 5.0)
    _VALUES_CALLS.clear()
    f_integral(SystemParams(kappa1=1.0, kappa2=0.2), counted, 0.0, 5.0)
    sizes = [call.size for call in _VALUES_CALLS]
    assert len(sizes) > 2
    assert sizes == [16 * 2**k for k in range(len(sizes))]


def test_analytic_fidelity_lossless():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    rep = analytic_fidelity(1.0, 0.0, 0.0, p, FIG1, math.pi / 2)
    assert rep.F1 == 1.0 and rep.F2 == 1.0 and rep.F == 1.0
    assert rep.mean_ratio == pytest.approx(1.0)


def test_analytic_fidelity_coherent():
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    rep = analytic_fidelity(1.0, 0.0, 0.0, p, FIG1, math.pi / 2)
    f = 0.2 * math.pi / 8
    assert rep.F1 == pytest.approx(1.0)
    assert rep.F2 == pytest.approx(1.0 - f * f, abs=1e-9)
    assert rep.F2 == pytest.approx(0.99383, abs=5e-6)
    assert rep.F == pytest.approx(rep.F1 * rep.F2)
    assert abs(rep.mean_ratio) == pytest.approx(math.exp(-rep.f0T))


def test_analytic_fidelity_squeezed():
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    rep = analytic_fidelity(1.0, 0.4, 0.0, p, FIG1, math.pi / 2)
    f = 0.2 * math.pi / 8
    assert rep.F1 == pytest.approx(1.0 - f * (math.cosh(0.8) - 1.0), abs=1e-12)
    assert rep.F1 == pytest.approx(0.97350, abs=5e-6)


def test_analytic_fidelity_regime_gates():
    # f = kappa1 pi/8 crosses 0.3 at kappa1 ~ 0.764
    with pytest.raises(AdiabaticError):
        analytic_fidelity(1.0, 0.0, 0.0, SystemParams(kappa1=0.8, kappa2=0.0), FIG1, math.pi / 2)
    with pytest.warns(UserWarning):
        analytic_fidelity(1.0, 0.0, 0.0, SystemParams(kappa1=0.3, kappa2=0.0), FIG1, math.pi / 2)


def test_analytic_monotone_in_kappa1():
    values = []
    for k1 in (0.05, 0.1, 0.2, 0.4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = analytic_fidelity(
                1.0, 0.0, 0.0, SystemParams(kappa1=k1, kappa2=0.0), FIG1, math.pi / 2
            )
        values.append(rep.F)
    assert all(a > b for a, b in zip(values, values[1:]))


# -- consistency with the numeric moment integrator, in the adiabatic regime --

SLOW = TrigSchedule(5.0, 5 * math.pi)  # adiabaticity ratio 0.02


def _numeric_fidelity(params, sched, T, alpha=1.0, r=0.0):
    initial = make_squeezed_coherent(alpha, r, 0.0)
    traj = integrate(embed_initial(initial, 0.0), params, sched, T)
    return gaussian_fidelity(initial, reduce_to_mode(traj.final, 3)), traj


def test_mean_amplitude_matches_ode_when_adiabatic():
    # adiabaticity 0.02 and kappa/g0 = 0.05
    p = SystemParams(kappa1=0.25, kappa2=0.0)
    T = 5 * math.pi
    _, traj = _numeric_fidelity(p, SLOW, T)
    predicted = cmath.exp(-f_integral(p, SLOW, 0.0, T))
    got = traj.final.mean[2]
    assert abs(got - predicted) / abs(predicted) < 0.01


def test_first_order_fidelity_matches_numeric_when_adiabatic():
    # the 2 f^2 window of the expansion holds once the schedule is slow enough
    T = 5 * math.pi
    for k1 in (0.01, 0.02, 0.04):
        p = SystemParams(kappa1=k1, kappa2=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = analytic_fidelity(1.0, 0.0, 0.0, p, SLOW, T)
        f_num, _ = _numeric_fidelity(p, SLOW, T)
        assert abs(f_num - rep.F) <= 2.0 * rep.f0T**2


def test_thermal_noise_bounded_when_adiabatic():
    # delta F stays below 3 x fs_bound once nonadiabatic noise pickup is negligible
    T = 5 * math.pi
    for k1 in (0.5, 1.0):
        quiet = SystemParams(kappa1=k1, kappa2=0.0)
        noisy = SystemParams(kappa1=k1, kappa2=0.0, gamma_m=2e-4, n_th=100.0)
        f_quiet, _ = _numeric_fidelity(quiet, SLOW, T)
        f_noisy, _ = _numeric_fidelity(noisy, SLOW, T)
        assert abs(f_quiet - f_noisy) <= 3.0 * fs_bound(noisy, SLOW, T)
