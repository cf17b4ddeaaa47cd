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
    "fs_bound",
    "analytic_fidelity",
]

_MAX_PANELS = 2**14
# 16-node Gauss-Lobatto rule on [-1, 1]: both ends and the 14 roots of P15',
# weighted 2 / (16 * 15 * P15(x)^2); exact for polynomials of degree 29
_P15 = np.polynomial.legendre.Legendre.basis(15)
_NODES = np.concatenate([[-1.0], _P15.deriv().roots(), [1.0]])
_WEIGHTS = 2.0 / (16 * 15 * _P15(_NODES) ** 2)


class AdiabaticError(RuntimeError):
    """Quadrature failure or expansion breakdown."""


@dataclass(frozen=True)
class TransferReport:
    """Scalar summary of one adiabatic conversion."""

    f0T: float
    fs: float
    F1: float
    F2: float
    F: float
    mean_ratio: complex


def _decay_rate(params: SystemParams, schedule: CouplingSchedule, t: np.ndarray) -> np.ndarray:
    g1, g2 = schedule.values(t)
    g0sq = g1 * g1 + g2 * g2
    vanishes = g0sq == 0.0
    if vanishes.any():
        raise AdiabaticError(f"g0 vanishes at t = {t[vanishes][0]}; decay integrand undefined")
    return (params.kappa2 * g1 * g1 + params.kappa1 * g2 * g2) / (2.0 * g0sq)


def f_integral(
    params: SystemParams,
    schedule: CouplingSchedule,
    t: float,
    T: float,
    tol: float = 1e-10,
) -> float:
    """Dark-mode decay exponent f(t,T) by composite 16-node Gauss-Lobatto quadrature.

    The interval edges are t, T and the schedule's kinks strictly between
    them (CouplingSchedule.kinks), where the integrand may kink.  Each
    interval is split into n equal panels for n = 1, 2, 4, ..., with all
    nodes of one n evaluated in
    one schedule call, until two successive sums differ by at most tol; the
    finer sum is returned.  Doubling past _MAX_PANELS panels in all, or past
    4 per interval on schedules with more kinks, raises.
    The Lobatto nodes include every panel end, so a ramp narrower than a panel
    at an interval end still moves the sum, and a g0 vanishing there raises.
    """
    if t > T:
        raise AdiabaticError(f"need t <= T, got t = {t}, T = {T}")
    if t == T:
        return 0.0

    edges = np.array([t, *schedule.kinks(t, T), T])
    n, previous = 1, None
    while True:
        grid = np.linspace(edges[:-1], edges[1:], n + 1, axis=1)
        lo, hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
        half = 0.5 * (hi - lo)
        nodes = lo[:, None] + half[:, None] * (1.0 + _NODES)
        nodes[:, -1] = hi  # lo + (hi - lo) may round past hi, out of the schedule's domain
        total = float(half @ (_decay_rate(params, schedule, nodes) @ _WEIGHTS))
        if previous is not None and abs(total - previous) <= tol:
            return total
        n, previous = 2 * n, total
        if n > max(_MAX_PANELS // (edges.size - 1), 4):
            raise AdiabaticError(f"Gauss-Lobatto panels did not converge within {half.size} panels")


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

    f(0,T) comes from f_integral at its default tol, 1e-10 absolute.  Valid
    for f(0,T) < 0.3; warns above 0.1.  For r != 0 the F2 factor still uses
    the r = 0 overlap function y = 2|alpha|^2; the numeric moment integrator
    is the authoritative path for squeezed inputs.
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
    )
