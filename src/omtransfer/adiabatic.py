"""Closed-form adiabatic-limit transfer results.

In the adiabatic limit the state rides the mechanical dark mode and the
mean amplitude of the target cavity obeys

    <a2(T)> = exp(-f(0,T)) <a1(0)>,
    f(t,T)  = integral_t^T (kappa2 g1^2 + kappa1 g2^2) / 2 g0^2 dt'

The conversion fidelity for a displaced squeezed input factorizes as
F = F1 * F2 with

    F1 ~ 1 - f(0,T) (cosh 2r - 1) - fs cosh 2r
    F2 ~ 1 - f(0,T)^2 y(alpha, r) / 2,     y(alpha, 0) = 2 |alpha|^2

to first order in the damping, where fs bounds the mechanical-noise
contribution:

    fs <~ gamma_m (2 n_th + 1) T [(kappa1 - kappa2) / 4 g0]^2.

These expressions hold for slow schedules; the exact numeric counterpart
lives in the ``gaussian`` module.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

from .model import CouplingSchedule, SystemParams

__all__ = [
    "AdiabaticError",
    "TransferReport",
    "f_integral",
    "mean_transfer_amplitude",
    "fs_bound",
    "analytic_fidelity",
]

_MAX_PANELS = 2**20


class AdiabaticError(RuntimeError):
    """Quadrature failure or expansion breakdown."""


@dataclass(frozen=True)
class TransferReport:
    """Scalar summary of one adiabatic conversion.

    f2_approximate marks reports where F2 was evaluated with the r = 0
    overlap function because the squeezed-input one is not available.
    """

    f0T: float
    fs: float
    F1: float
    F2: float
    F: float
    mean_ratio: complex
    f2_approximate: bool = False


def _decay_rate(params: SystemParams, schedule: CouplingSchedule, t: float) -> float:
    g1, g2 = schedule.values(t)
    g0sq = g1 * g1 + g2 * g2
    if g0sq == 0.0:
        raise AdiabaticError(f"g0 vanishes at t = {t}; decay integrand undefined")
    return (params.kappa2 * g1 * g1 + params.kappa1 * g2 * g2) / (2.0 * g0sq)


def f_integral(
    params: SystemParams,
    schedule: CouplingSchedule,
    t: float,
    T: float,
    tol: float = 1e-10,
) -> float:
    """Dark-mode decay exponent f(t,T) by adaptive Simpson quadrature."""
    if t > T:
        raise AdiabaticError(f"need t <= T, got t = {t}, T = {T}")
    if t == T:
        return 0.0

    func = lambda s: _decay_rate(params, schedule, s)
    panels = 0

    def simpson(a: float, fa: float, m: float, fm: float, b: float, fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, eps):
        nonlocal panels
        panels += 1
        if panels > _MAX_PANELS:
            raise AdiabaticError(
                f"adaptive Simpson did not converge within {_MAX_PANELS} panels"
            )
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
    return recurse(t, fa, m, fm, T, fb, simpson(t, fa, m, fm, T, fb), tol)


def mean_transfer_amplitude(
    alpha0: complex,
    params: SystemParams,
    schedule: CouplingSchedule,
    T: float,
) -> complex:
    """Adiabatic-limit mean of the target cavity, exp(-f(0,T)) * alpha0."""
    return cmath.exp(-f_integral(params, schedule, 0.0, T)) * alpha0


@functools.lru_cache(maxsize=256)
def _g0_min(schedule: CouplingSchedule, T: float) -> float:
    """Minimum of g0 over the 1001-point interior grid of (0, T)."""
    n_grid = 1001
    g0_min = math.inf
    for k in range(1, n_grid + 1):
        g0_min = min(g0_min, schedule.g0(T * k / (n_grid + 1)))
    return g0_min


def fs_bound(params: SystemParams, schedule: CouplingSchedule, T: float) -> float:
    """Upper estimate of the mechanical-noise term fs.

    gamma_m (2 n_th + 1) T ((kappa1 - kappa2) / 4 g0_min)^2 with g0_min the
    minimum of g0 over a 1001-point interior grid, cached per (schedule, T)
    for hashable schedules, which must therefore not change after use.
    This is a bound-style estimate, not an equality.
    """
    try:
        g0_min = _g0_min(schedule, T)
    except TypeError:  # an unhashable schedule cannot be a cache key
        g0_min = _g0_min.__wrapped__(schedule, T)
    if g0_min == 0.0:
        raise AdiabaticError("g0 vanishes on the interior grid; fs bound undefined")
    return (
        params.gamma_m
        * (2.0 * params.n_th + 1.0)
        * T
        * ((params.kappa1 - params.kappa2) / (4.0 * g0_min)) ** 2
    )


def analytic_fidelity(
    alpha: complex,
    r: float,
    phi: float,
    params: SystemParams,
    schedule: CouplingSchedule,
    T: float,
) -> TransferReport:
    """First-order conversion fidelity F = F1 * F2 for a displaced squeezed input.

    Valid for f(0,T) < 0.3; warns above 0.1.  For r != 0 the F2 factor uses
    the r = 0 overlap function y = 2|alpha|^2 and the report is flagged
    approximate; the numeric moment integrator is the authoritative path
    for squeezed inputs.
    """
    f = f_integral(params, schedule, 0.0, T)
    if f >= 0.3:
        raise AdiabaticError(
            f"f(0,T) = {f:.3f} is outside the first-order expansion regime; "
            "use the numeric fidelity instead"
        )
    if f > 0.1:
        warnings.warn(
            f"f(0,T) = {f:.3f} > 0.1; first-order fidelity may be inaccurate",
            stacklevel=2,
        )
    fs = fs_bound(params, schedule, T)
    ch2r = math.cosh(2.0 * r)
    F1 = 1.0 - f * (ch2r - 1.0) - fs * ch2r
    y = 2.0 * abs(alpha) ** 2
    F2 = 1.0 - f * f * y / 2.0
    if not (0.0 <= F1 <= 1.0) or not (0.0 <= F2 <= 1.0):
        raise AdiabaticError(
            f"expansion breakdown: F1 = {F1:.4f}, F2 = {F2:.4f} outside [0, 1]; "
            "use the numeric fidelity instead"
        )
    return TransferReport(
        f0T=f,
        fs=fs,
        F1=F1,
        F2=F2,
        F=F1 * F2,
        mean_ratio=cmath.exp(-f),
        f2_approximate=(r != 0.0),
    )
