"""Eigen-analysis of the 3x3 dynamic matrix and the mechanical dark mode.

At zero damping the spectrum of M is {0, -g0, +g0} and the null eigenmode
[-g2, 0, g1]/g0 carries no mechanical weight: it is the dark mode that
stores the photonic state during adiabatic transfer.  Damping moves the
dark eigenvalue to -i(kappa2 g1^2 + kappa1 g2^2)/2g0^2 and mixes in a
mechanical component proportional to (kappa1 - kappa2).

Eigenpairs come from LAPACK (np.linalg.eig), one call for a whole stack of
matrices, and every pair is checked against its residual.  LAPACK solves
the real matrix R = T^-1 (-i M) T, T = diag(1, -i, -1), whose eigenpairs
(mu, w) give M's as lambda = i mu and v = T w.  A sweep matches the raw
eigenvectors of consecutive times by their best overlap permutation, so
only the composition of those permutations is sequential.  The exact dark
mode is picked from the checked raw eigenpairs of one matrix.

Near an exceptional point two eigenvectors merge and U stops being
invertible.  An eigensystem is therefore rejected with SpectralError when
the condition number ||U||_F ||U^-1||_F of its unit-column basis exceeds
1/(1e3 * _RESIDUAL_TOL) = 1e7.  At kappa1 = 0.4, kappa2 = gamma_m = 0,
g2 = 0 the exceptional point is g1 = 0.1 (condition 1.4e8, rejected); at
g1 = 0.1 (1 + 1e-9) the condition is 5.5e4 and the pairs are returned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .model import _GAUGE, CouplingSchedule, SystemParams, _gauged_drift, drift_stack

__all__ = [
    "Eigensystem",
    "DarkMode",
    "SpectralError",
    "eigensystem",
    "eigensystem_sweep",
    "dark_mode_exact",
    "dark_mode_perturbative",
    "adiabatic_correction_norm",
]

_RESIDUAL_TOL = 1e-10
_MAX_CONDITION = 1.0 / (1e3 * _RESIDUAL_TOL)
_PERMUTATIONS = np.array(list(permutations(range(3))))


class SpectralError(RuntimeError):
    """Eigen-decomposition could not be completed to tolerance."""


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Eigenvalues, unit eigenvectors (columns of U), and U^-1 of one M."""

    lambdas: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True, eq=False)
class DarkMode:
    """The (near-)mechanically-dark eigenmode of M."""

    vector: np.ndarray
    lambda1: complex
    mechanical_weight: float


def _top_phase(v: np.ndarray) -> np.ndarray:
    """Unit factor making the top entry of v (of each column) real and positive.

    The top entry is the first whose modulus is within 8 eps relative of the
    largest, so moduli tied up to rounding do not let rounding pick it.
    """
    mod = np.abs(v)
    near = mod >= (1.0 - 8.0 * np.finfo(float).eps) * mod.max(axis=0)
    top = np.take_along_axis(v, near.argmax(axis=0)[None], axis=0)[0]
    return top.conj() / np.abs(top)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return v * _top_phase(v)


def _eigenpairs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (K, 3) and unit eigenvector columns (K, 3, 3) of a drift stack, each pair's residual checked.

    LAPACK solves the real R = T^-1 (-i M) T of model._gauged_drift; its pairs (mu, w) give lambda = i mu, v = T w.
    """
    mu, w = np.linalg.eig(_gauged_drift(mats))
    lambdas, raw = 1j * mu, _GAUGE[:, None] * w
    limit = 1e3 * _RESIDUAL_TOL * np.maximum(np.linalg.norm(mats, axis=(1, 2)), 1.0)
    res = np.linalg.norm(mats @ raw - raw * lambdas[:, None, :], axis=1)
    bad = ~(res <= limit[:, None])
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise SpectralError(f"eigenpair {i} residual {res[k, i]:.3e} out of tolerance")
    return lambdas, raw


def _inverse(vectors: np.ndarray) -> np.ndarray:
    """U^-1 of a (K, 3, 3) stack of unit-column bases; SpectralError if one is singular or ill-conditioned."""
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        raise SpectralError("eigenvector matrix is numerically singular") from None
    cond = np.linalg.norm(vectors, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
    bad = ~(cond <= _MAX_CONDITION)
    if bad.any():
        raise SpectralError(
            f"eigenvector matrix has condition number {cond[bad][0]:.3e} > {_MAX_CONDITION:.0e}: "
            "M is at or near an exceptional point"
        )
    return inverse


def _tracked(mats: np.ndarray, reference: np.ndarray | None = None) -> list[Eigensystem]:
    """Eigensystems of a (K, 3, 3) drift stack whose columns stay continuous from step to step.

    Without reference vectors the first step is ordered by ascending
    (Re, Im) lambda in the _top_phase gauge; with them it is matched to
    them.  Each later step is matched to the one before.  Matching picks
    the column permutation of maximal summed overlap modulus and aligns
    each column's phase to its predecessor.
    """
    lambdas, raw = _eigenpairs(mats)
    if reference is None:
        chain = raw
        first = np.lexsort((lambdas[0].imag, lambdas[0].real))
        phase0 = _top_phase(raw[0][:, first])
    else:
        chain = np.concatenate([reference[None], raw])
        first, phase0 = np.arange(3), np.ones(3)
    # overlaps[k, j, l] = <column j of step k, column l of step k + 1>; the best
    # permutation of raw columns does not depend on the order chosen before
    overlaps = np.einsum("kij,kil->kjl", chain[:-1].conj(), chain[1:])
    scores = np.abs(overlaps)[:, np.arange(3), _PERMUTATIONS].sum(axis=2)
    sigma = _PERMUTATIONS[scores.argmax(axis=1)]
    matched = np.take_along_axis(overlaps, sigma[:, :, None], axis=2)[..., 0]
    orders = [first.tolist()]
    for step in sigma.tolist():
        orders.append([step[j] for j in orders[-1]])
    order = np.array(orders)
    along = np.take_along_axis(matched, order[:-1], axis=1)
    lost = np.abs(along) < 0.5
    if lost.any():
        k, i = np.argwhere(lost)[0]
        raise SpectralError(f"continuity tracking lost mode {i}: overlap {abs(along[k, i]):.3f}")
    phase = phase0 * np.cumprod(np.concatenate([np.ones((1, 3)), along.conj() / np.abs(along)]), axis=0)
    phase /= np.abs(phase)  # keep the running product from drifting off the unit circle
    if reference is not None:
        order, phase = order[1:], phase[1:]

    vectors = np.take_along_axis(raw, order[:, None, :], axis=2) * phase[:, None, :]
    lambdas = np.take_along_axis(lambdas, order, axis=1)
    return [Eigensystem(*fields) for fields in zip(lambdas, vectors, _inverse(vectors))]


def eigensystem(m: np.ndarray, reference: Eigensystem | None = None) -> Eigensystem:
    """Full eigensystem of the complex (3, 3) drift matrix m.

    Without a reference the modes are ordered by ascending Re(lambda), then
    Im(lambda), and each vector's phase is fixed so its largest-modulus
    component, the first of any tied within 8 eps, is real and positive.
    With a reference (a previous step of a time sweep) the modes are
    matched to it by maximal overlap and the phases are aligned to the
    reference gauge, which keeps U(t) differentiable along sweeps.  Raises
    SpectralError when an overlap falls below 0.5, an eigenpair residual
    exceeds 1e3 * _RESIDUAL_TOL * max(||M||_F, 1), or U is singular or
    ill-conditioned (see module docstring).
    """
    ref = None if reference is None else reference.vectors
    return _tracked(m[None], ref)[0]


def eigensystem_sweep(
    params: SystemParams, schedule: CouplingSchedule, times: Sequence[float]
) -> list[Eigensystem]:
    """Eigensystems along a schedule with continuity-tracked ordering.

    Equal, up to rounding, to chaining eigensystem(M(t_k), reference=previous)
    from an unreferenced first step, but computed as one batched LAPACK call.
    """
    if len(times) == 0:
        return []
    g1, g2 = schedule.values(np.asarray(times, dtype=float))
    return _tracked(drift_stack(params.damping_diagonal, g1, g2))


def _ideal_dark_vector(g1: float, g2: float) -> np.ndarray:
    g0 = math.hypot(g1, g2)
    if g0 == 0:
        raise SpectralError("dark mode undefined at g1 = g2 = 0")
    return np.array([-g2 / g0, 0.0, g1 / g0], dtype=complex)


def dark_mode_exact(m: np.ndarray) -> DarkMode:
    """The exact eigenmode of the drift matrix m closest to the ideal dark vector, from checked raw eigenpairs."""
    ideal = _ideal_dark_vector(m[0, 1].real, m[1, 2].real)
    lambdas, raw = _eigenpairs(m[None])
    _inverse(raw)
    overlaps = np.abs(ideal.conj() @ raw[0])
    ranked = sorted(range(3), key=lambda i: -overlaps[i])
    if overlaps[ranked[0]] - overlaps[ranked[1]] < 1e-6:
        raise SpectralError(
            "ambiguous dark-mode selection: overlaps "
            f"{overlaps[ranked[0]]:.8f} and {overlaps[ranked[1]]:.8f}"
        )
    i = ranked[0]
    v = _fix_phase(raw[0][:, i])
    return DarkMode(vector=v, lambda1=complex(lambdas[0, i]), mechanical_weight=float(abs(v[1]) ** 2))


def dark_mode_perturbative(params: SystemParams, g1: float, g2: float) -> DarkMode:
    """First-order dark mode and eigenvalue for weak damping.

    psi1 = [-g2/g0, -i(kappa1 - kappa2) g1 g2 / 2 g0^3, g1/g0]  (normalized)
    lambda1 = -i (kappa2 g1^2 + kappa1 g2^2) / 2 g0^2
    """
    g0 = math.hypot(g1, g2)
    if g0 == 0:
        raise SpectralError("perturbative dark mode undefined at g0 = 0")
    worst = max(params.kappa1, params.kappa2, params.gamma_m)
    if worst >= g0:
        raise SpectralError(
            f"perturbative regime requires damping < g0, got ratio {worst / g0:.3f}"
        )
    if worst > 0.2 * g0:
        warnings.warn(
            f"damping/g0 = {worst / g0:.3f} is not small; perturbative dark mode "
            "may be inaccurate",
            stacklevel=2,
        )
    v = np.array(
        [
            -g2 / g0,
            -1j * (params.kappa1 - params.kappa2) * g1 * g2 / (2.0 * g0**3),
            g1 / g0,
        ],
        dtype=complex,
    )
    v = _fix_phase(v)
    lam = -1j * (params.kappa2 * g1**2 + params.kappa1 * g2**2) / (2.0 * g0**2)
    return DarkMode(vector=v, lambda1=lam, mechanical_weight=float(abs(v[1]) ** 2))


def adiabatic_correction_norm(
    schedule: CouplingSchedule, params: SystemParams, t: float
) -> float:
    """Max-entry norm of (dU^-1/dt) U(t), the term dropped in the adiabatic limit.

    U^-1 is finite-differenced over h = 1e-5 * duration with continuity-tracked
    (and phase-aligned) eigenvector ordering, so the estimate is free of
    ordering and gauge jumps.
    """
    span = schedule.duration
    if not math.isfinite(span):
        span = max(t, 1.0)
    if not (0.0 < t < schedule.duration):
        raise SpectralError(f"t = {t} must be interior to (0, {schedule.duration})")
    h = 1e-5 * span
    t_lo = max(t - h, 0.0)
    t_hi = min(t + h, schedule.duration)
    es_lo, es_mid, es_hi = eigensystem_sweep(params, schedule, [t_lo, t, t_hi])
    dinv = (es_hi.inverse - es_lo.inverse) / (t_hi - t_lo)
    return float(np.max(np.abs(dinv @ es_mid.vectors)))
