import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from omtransfer import adiabatic
from omtransfer.adiabatic import (
    AdiabaticError,
    analytic_fidelity,
    f_integral,
    fs_bound,
    mean_transfer_amplitude,
)
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


# -- frozen reference: the recursive adaptive Simpson the level-order rule replaced --

def _reference_f_integral(params, schedule, t, T, tol=1e-10, max_panels=2**20):
    """(f(t,T), panel count) by the old one-node-per-call recursion."""

    def func(s):
        g1, g2 = schedule.values(s)
        g0sq = g1 * g1 + g2 * g2
        return (params.kappa2 * g1 * g1 + params.kappa1 * g2 * g2) / (2.0 * g0sq)

    panels = 0

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, eps):
        nonlocal panels
        panels += 1
        if panels > max_panels:
            raise AdiabaticError("panel cap exceeded")
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = func(lm), func(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, eps / 2.0) + recurse(
            m, fm, rm, frm, b, fb, right, eps / 2.0
        )

    fa, fb = func(t), func(T)
    m = 0.5 * (t + T)
    fm = func(m)
    value = recurse(t, fa, m, fm, T, fb, simpson(t, fa, m, fm, T, fb), tol)
    return value, panels


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


def test_f_integral_matches_recursive_reference():
    rng = np.random.default_rng(20110)
    kinds = set()
    for _ in range(150):
        params, sched, t, T, tol = _random_case(rng)
        kinds.add(type(sched))
        want, _ = _reference_f_integral(params, sched, t, T, tol)
        got = f_integral(params, sched, t, T, tol)
        assert abs(got - want) <= 1e-15 * abs(want)
    assert len(kinds) == 3


def test_f_integral_panel_cap(monkeypatch):
    # the cap counts panels as the recursion did: exactly enough converges, one fewer raises
    p = SystemParams(kappa1=0.7, kappa2=0.1)
    ramp = TanhRampSchedule(g_max=5.0, center=1.3, width=0.4, duration=4.0)
    want, panels = _reference_f_integral(p, ramp, 0.0, 4.0)
    assert panels > 100
    monkeypatch.setattr(adiabatic, "_MAX_PANELS", panels)
    assert f_integral(p, ramp, 0.0, 4.0) == pytest.approx(want, rel=1e-15)
    monkeypatch.setattr(adiabatic, "_MAX_PANELS", panels - 1)
    with pytest.raises(AdiabaticError, match=f"did not converge within {panels - 1} panels"):
        f_integral(p, ramp, 0.0, 4.0)
    # an unreachable tolerance never accepts a panel and stops at the cap
    monkeypatch.setattr(adiabatic, "_MAX_PANELS", 4095)
    with pytest.raises(AdiabaticError, match="did not converge"):
        f_integral(p, ramp, 0.0, 4.0, tol=-1.0)


def test_f_integral_partial_interval():
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    full = f_integral(p, FIG1, 0.0, math.pi / 2)
    a = f_integral(p, FIG1, 0.0, 0.7)
    b = f_integral(p, FIG1, 0.7, math.pi / 2)
    assert a + b == pytest.approx(full, abs=1e-9)
    with pytest.raises(AdiabaticError):
        f_integral(p, FIG1, 1.0, 0.5)


def test_mean_transfer_amplitude():
    p0 = SystemParams(kappa1=0.0, kappa2=0.0)
    assert mean_transfer_amplitude(1.0, p0, FIG1, math.pi / 2) == pytest.approx(1.0)
    p = SystemParams(kappa1=0.2, kappa2=0.0)
    expected = math.exp(-0.2 * math.pi / 8)
    got = mean_transfer_amplitude(1.0, p, FIG1, math.pi / 2)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(0.92446, abs=1e-5)
    assert mean_transfer_amplitude(0.0, p, FIG1, math.pi / 2) == 0.0


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


def test_analytic_fidelity_lossless():
    p = SystemParams(kappa1=0.0, kappa2=0.0)
    rep = analytic_fidelity(1.0, 0.0, 0.0, p, FIG1, math.pi / 2)
    assert rep.F1 == 1.0 and rep.F2 == 1.0 and rep.F == 1.0
    assert rep.mean_ratio == pytest.approx(1.0)
    assert not rep.f2_approximate


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
    assert rep.f2_approximate


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
    predicted = mean_transfer_amplitude(1.0, p, SLOW, T)
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
