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
import math
import warnings
from dataclasses import dataclass

import numpy as np

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


def _decay_rate(params: SystemParams, schedule: CouplingSchedule, t: np.ndarray) -> np.ndarray:
    g1, g2 = schedule.values(t)
    g0sq = g1 * g1 + g2 * g2
    vanishes = g0sq == 0.0
    if vanishes.any():
        raise AdiabaticError(f"g0 vanishes at t = {t[vanishes][0]}; decay integrand undefined")
    return (params.kappa2 * g1 * g1 + params.kappa1 * g2 * g2) / (2.0 * g0sq)


def _simpson(a, fa, m, fm, b, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def f_integral(
    params: SystemParams,
    schedule: CouplingSchedule,
    t: float,
    T: float,
    tol: float = 1e-10,
) -> float:
    """Dark-mode decay exponent f(t,T) by adaptive Simpson quadrature.

    A panel is accepted when its two halves' Simpson sum is within 15 eps of
    its own, with eps = tol / 2^level, and halved otherwise.  All open panels
    of one level are evaluated in one schedule call, and the accepted values
    are summed pairwise back up the panel tree, in the recursive rule's order.
    """
    if t > T:
        raise AdiabaticError(f"need t <= T, got t = {t}, T = {T}")
    if t == T:
        return 0.0

    m = 0.5 * (t + T)
    fa, fm, fb = _decay_rate(params, schedule, np.array([t, m, T]))
    # one column per open panel: a, f(a), m, f(m), b, f(b) and its Simpson estimate
    panels = np.array([[t], [fa], [m], [fm], [T], [fb], [_simpson(t, fa, m, fm, T, fb)]])
    eps, count, levels = tol, 0, []
    while panels.size:
        count += panels.shape[1]
        if count > _MAX_PANELS:
            raise AdiabaticError(
                f"adaptive Simpson did not converge within {_MAX_PANELS} panels"
            )
        a, fa, m, fm, b, fb, whole = panels
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = _decay_rate(params, schedule, np.array([lm, rm]))
        left = _simpson(a, fa, lm, flm, m, fm)
        right = _simpson(m, fm, rm, frm, b, fb)
        pair = left + right
        accepted = np.abs(pair - whole) <= 15.0 * eps
        levels.append((accepted, pair + (pair - whole) / 15.0))
        # each split panel's left then right half, in panel order
        halves = np.array([[a, fa, lm, flm, m, fm, left], [m, fm, rm, frm, b, fb, right]])
        panels = halves[:, :, ~accepted].transpose(1, 2, 0).reshape(7, -1)
        eps /= 2.0
    total = np.empty(0)
    for accepted, value in reversed(levels):
        value[~accepted] = total[0::2] + total[1::2]
        total = value
    return float(total[0])


def mean_transfer_amplitude(
    alpha0: complex,
    params: SystemParams,
    schedule: CouplingSchedule,
    T: float,
) -> complex:
    """Adiabatic-limit mean of the target cavity, exp(-f(0,T)) * alpha0."""
    return cmath.exp(-f_integral(params, schedule, 0.0, T)) * alpha0


def fs_bound(params: SystemParams, schedule: CouplingSchedule, T: float) -> float:
    """Upper estimate of the mechanical-noise term fs.

    gamma_m (2 n_th + 1) T ((kappa1 - kappa2) / 4 g0_min)^2 with g0_min the
    minimum of g0 over a 1001-point interior grid of (0, T), evaluated in
    one schedule call.  This is a bound-style estimate, not an equality.
    """
    n_grid = 1001
    g0_min = float(schedule.g0(T * np.arange(1, n_grid + 1) / (n_grid + 1)).min())
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
