"""Frequency-domain transmission and time-domain pulse propagation.

For constant couplings the input-output relation v_out = v_in - sqrt(K) v
solves in the frequency domain (convention a(w) = int dt/sqrt(2pi) a(t) e^{iwt}):

    v_out(w) = T(w) v_in(w),   T(w) = I - i sqrt(K) (Iw - M)^{-1} sqrt(K)

The a1 -> a2 channel is the element T31.  On resonance

    T31(0) = 8 g1 g2 sqrt(k1 k2) / (4 g1^2 k2 + 4 g2^2 k1 + gm k1 k2)

which reaches ~1 at the impedance-matched point g1^2 k2 = g2^2 k1, and the
amplitude half-width (|T31| = |T31(0)|/2) is approximately

    dw = sqrt(3) (g1^2 k2 + g2^2 k1 + gm k1 k2 / 4) / 2 (g1^2 + g2^2).

Pulse shapes are compared with the normalized overlap

    Fp = |int a_in a_out^* dt|^2 / (int |a_in|^2 int |a_out|^2) <= 1.

The paper's quoted pulse fidelities (0.97 / 0.77) correspond to sqrt(Fp),
the overlap modulus.

Time-dependent couplings are handled by propagating the driven mean
equation exactly linear in the input, in real arithmetic in the gauge
T = diag(1, -i, -1) that the moment integrator uses, with sixth-order
Magnus panels split at the schedule's kinks and an error estimate per
panel count; the pieces compose by one doubling scan.  For constant
couplings this doubles as an independent cross-check of the FFT path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import build_csv
from .model import _GAUGE, _GL3_NODES, CouplingSchedule, SystemParams, _gauged_panels, _magnus6_block_exp, _mul, _runs, _scan, drift_stack

__all__ = [
    "TransmissionError",
    "Pulse",
    "TransmissionSpectrum",
    "ResonantTransmission",
    "gaussian_pulse",
    "transmission_matrix",
    "transmission_spectrum",
    "t31_resonant",
    "half_width",
    "pulse_fidelity",
    "pulse_energy",
    "transmit_pulse_freq",
    "transmit_pulse_time",
    "pulse_to_csv",
    "spectrum_to_csv",
]

_EDGE_DECAY = 1e-6
# per-piece error budget of transmit_pulse_time, relative to the input peak, and its
# cap on the panels of one refinement round after the first (26 MB of 5x5 maps)
_PULSE_TOL = 1e-9
_MAX_PANELS = 2**16


class TransmissionError(RuntimeError):
    """Invalid pulse grid, singular response, or no half-width crossing."""


@dataclass(eq=False)
class Pulse:
    """Complex mean-field time series on a uniform grid."""

    times: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.times.ndim != 1 or self.times.size < 2:
            raise TransmissionError("pulse needs at least two samples")
        if self.amplitudes.shape != self.times.shape:
            raise TransmissionError("times and amplitudes must have equal length")
        # NaN fails every comparison, so the grid check below would pass it
        if not (np.isfinite(self.times).all() and np.isfinite(self.amplitudes).all()):
            raise TransmissionError("pulse times and amplitudes must be finite")
        steps = np.diff(self.times)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.mean():
            raise TransmissionError("pulse grid must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True, eq=False)
class TransmissionSpectrum:
    """T(w) sampled on a sorted frequency grid."""

    omegas: np.ndarray
    matrices: np.ndarray

    def t31(self) -> np.ndarray:
        return self.matrices[:, 2, 0]


@dataclass(frozen=True)
class ResonantTransmission:
    value: float
    optimal: bool
    mismatch: float


def gaussian_pulse(
    sigma_omega: float, amplitude: complex = 1.0, n_points: int = 4096
) -> Pulse:
    """A exp(-sigma_w^2 (t - tc)^2 / 2) on [0, 16/sigma_w), centered at tc = 8/sigma_w.

    The window puts the edges 8 standard deviations out (amplitude < e^-32),
    comfortably satisfying the FFT windowing rule, and n_points is kept a
    power of two so the x4 zero-padded grid is FFT-friendly.
    """
    if sigma_omega <= 0:
        raise TransmissionError("sigma_omega must be positive")
    if n_points < 16 or (n_points & (n_points - 1)) != 0:
        raise TransmissionError("n_points must be a power of two >= 16")
    span = 16.0 / sigma_omega
    dt = span / n_points
    times = dt * np.arange(n_points)
    center = span / 2.0
    amps = amplitude * np.exp(-0.5 * sigma_omega**2 * (times - center) ** 2)
    return Pulse(times=times, amplitudes=amps)


def _det_cubic(params: SystemParams, g1: float, g2: float) -> np.ndarray:
    """Coefficients [1, b, c, d] of det(wI - M) = w^3 + b w^2 + c w + d."""
    d1, d2, dm = -0.5j * params.kappa1, -0.5j * params.kappa2, -0.5j * params.gamma_m
    b = -(d1 + dm + d2)
    c = d1 * dm + d1 * d2 + dm * d2 - g1 * g1 - g2 * g2
    d = -(d1 * dm * d2 - d1 * g2 * g2 - d2 * g1 * g1)
    return np.array([1.0, b, c, d])


def _t31_values(
    params: SystemParams, g1: float, g2: float, omegas: np.ndarray
) -> np.ndarray:
    """T31 on a frequency grid as a constant over the det(wI - M) cubic."""
    if params.kappa1 == 0.0 or params.kappa2 == 0.0:
        return np.zeros_like(omegas, dtype=complex)
    _, b, c, d = _det_cubic(params, g1, g2)
    det = ((omegas + b) * omegas + c) * omegas + d
    return -1j * math.sqrt(params.kappa1 * params.kappa2) * g1 * g2 / det


def _transfer_stack(params: SystemParams, g1: float, g2: float, omegas: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of T(w) = I - i sqrt(K) (Iw - M)^{-1} sqrt(K); identity when K = 0."""
    eye = np.eye(3, dtype=complex)
    if params.kappa1 == params.kappa2 == params.gamma_m == 0.0:
        return np.broadcast_to(eye, (omegas.size, 3, 3)).copy()
    damping = params.damping_diagonal
    m = omegas[:, None, None] * eye - drift_stack(damping, g1, g2)
    singular = np.abs(np.linalg.det(m)) < 1e-300
    if singular.any():
        omega = float(omegas[np.argmax(singular)])
        raise TransmissionError(f"(I w - M) is singular at omega = {omega}")
    sqrt_k = np.sqrt(damping)
    resolvent_k = np.linalg.solve(m, np.broadcast_to(np.diag(sqrt_k), m.shape))
    return eye - 1j * sqrt_k[:, None] * resolvent_k


def transmission_matrix(
    params: SystemParams, g1: float, g2: float, omega: float
) -> np.ndarray:
    """Exact T(omega) by one LAPACK solve; identity when K = 0."""
    return _transfer_stack(params, g1, g2, np.array([float(omega)]))[0]


def transmission_spectrum(
    params: SystemParams, g1: float, g2: float, omegas: np.ndarray
) -> TransmissionSpectrum:
    """T(w) on the sorted grid by one batched solve over all frequencies."""
    omegas = np.sort(np.asarray(omegas, dtype=float))
    return TransmissionSpectrum(omegas=omegas, matrices=_transfer_stack(params, g1, g2, omegas))


def t31_resonant(params: SystemParams, g1: float, g2: float) -> ResonantTransmission:
    """Resonant transmission by the closed form, with the matching diagnostic."""
    denom = (
        4.0 * g1 * g1 * params.kappa2
        + 4.0 * g2 * g2 * params.kappa1
        + params.gamma_m * params.kappa1 * params.kappa2
    )
    if denom == 0.0:
        raise TransmissionError("resonant transmission undefined: zero denominator")
    value = 8.0 * g1 * g2 * math.sqrt(params.kappa1 * params.kappa2) / denom
    lhs, rhs = g1 * g1 * params.kappa2, g2 * g2 * params.kappa1
    scale = max(abs(lhs), abs(rhs), 1e-300)
    mismatch = abs(lhs - rhs) / scale
    return ResonantTransmission(value=value, optimal=mismatch <= 1e-9, mismatch=mismatch)


def half_width(params: SystemParams, g1: float, g2: float) -> tuple[float, float]:
    """(analytic, numeric) amplitude half-widths of |T31|.

    As T31 is a constant over det(wI - M), |T31(w)| = |T31(0)|/2 where the
    real degree-6 polynomial |det(w)|^2 - 4 |det(0)|^2 vanishes.  The
    numeric value is its smallest real root inside (0, g0/2], from the
    eigenvalues of its companion matrix (np.roots); the bracket excludes
    the normal-mode structure near +-g0.
    """
    if params.kappa1 <= 0 or params.kappa2 <= 0:
        raise TransmissionError("half-width requires kappa1, kappa2 > 0")
    g0 = math.hypot(g1, g2)
    if g0 == 0:
        raise TransmissionError("half-width requires g0 > 0")
    analytic = (
        math.sqrt(3.0)
        * (
            g1 * g1 * params.kappa2
            + g2 * g2 * params.kappa1
            + params.gamma_m * params.kappa1 * params.kappa2 / 4.0
        )
        / (2.0 * (g1 * g1 + g2 * g2))
    )

    p = _det_cubic(params, g1, g2)
    poly = np.polymul(p, p.conj()).real
    poly[-1] -= 4.0 * abs(p[-1]) ** 2
    # with g1 g2 = 0, T31 vanishes identically while the polynomial keeps its roots;
    # couplings that are not finite, or overflow it, leave no root to find
    roots = np.roots(poly) if g1 * g2 != 0.0 and np.isfinite(poly).all() else np.empty(0)
    crossings = roots.real[(roots.imag == 0.0) & (roots.real > 0.0) & (roots.real <= g0 / 2.0)]
    if crossings.size == 0:
        raise TransmissionError(
            "no half-width crossing in (0, g0/2]; outside the validity regime"
        )
    return analytic, float(crossings.min())


def pulse_energy(p: Pulse) -> float:
    return float(np.trapezoid(np.abs(p.amplitudes) ** 2, p.times))


def pulse_fidelity(p_in: Pulse, p_out: Pulse) -> float:
    """Normalized modulus-squared overlap of the two mean pulses (trapezoid rule).

    The pulses must share their start, to 1e-12 of the span, and their
    spacing, to the 1e-9 relative that Pulse allows; the shorter one is
    zero-extended onto the longer one's times.  Other grids raise.
    """
    grid = max(p_in, p_out, key=lambda p: p.times.size).times
    shifted = abs(p_in.times[0] - p_out.times[0]) > 1e-12 * (grid[-1] - grid[0])
    if shifted or abs(p_in.dt - p_out.dt) > 1e-9 * max(p_in.dt, p_out.dt):
        raise TransmissionError("pulse fidelity needs two pulses with the same start and spacing")
    a, b = (np.pad(p.amplitudes, (0, grid.size - p.times.size)) for p in (p_in, p_out))
    norm_a = np.trapezoid(np.abs(a) ** 2, grid)
    norm_b = np.trapezoid(np.abs(b) ** 2, grid)
    if norm_a <= 0.0 or norm_b <= 0.0:
        raise TransmissionError("pulse fidelity undefined for a zero-norm pulse")
    overlap = np.trapezoid(a * np.conj(b), grid)
    fp = float(abs(overlap) ** 2 / (norm_a * norm_b))
    if fp > 1.0 + 1e-12:
        raise TransmissionError(f"pulse fidelity {fp} exceeds the Cauchy-Schwarz bound")
    return min(fp, 1.0)


def transmit_pulse_freq(
    p_in: Pulse, params: SystemParams, g1: float, g2: float
) -> Pulse:
    """Filter the input pulse through T31 in the frequency domain.

    The grid is zero-padded x4 (so the network ring-down fits the window)
    and the output is returned on the padded grid.  T31(-w)* = T31(w), so
    the filter maps real pulses to real pulses: the real and imaginary parts
    are filtered separately by real FFTs, and a real input gives an output
    with imaginary part exactly 0.
    """
    amps = p_in.amplitudes
    peak = float(np.abs(amps).max())
    if peak == 0.0:
        raise TransmissionError("cannot transmit a zero pulse")
    edge = max(abs(amps[0]), abs(amps[-1]))
    if edge > _EDGE_DECAY * peak:
        raise TransmissionError(
            f"pulse edge amplitude {edge:.3e} exceeds {_EDGE_DECAY:g} x peak; "
            "widen the time window before FFT transmission"
        )
    n0 = p_in.times.size
    if n0 & (n0 - 1):
        raise TransmissionError("FFT transmission needs a power-of-two grid length")
    n = 4 * n0
    dt = p_in.dt
    # with a(w) = int dt a(t) e^{iwt}, rfft bin k holds frequency -2 pi k / (n dt)
    spec = np.fft.rfft([amps.real, amps.imag], n=n)
    omegas = -2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    re, im = np.fft.irfft(spec * _t31_values(params, g1, g2, omegas), n=n)
    out = re + 1j * im
    times = p_in.times[0] + dt * np.arange(n)
    return Pulse(times=times, amplitudes=out)


def _piece_maps(
    params: SystemParams, schedule: CouplingSchedule, starts: np.ndarray, lengths: np.ndarray, n: int
) -> list[np.ndarray]:
    """Real (P, 5, 5) propagators of z = [y'; u; du/dt] over each piece, as n and as 2n Magnus-6 panels.

    In the gauge y = T y', T = diag(1, -i, -1) of model._gauged_drift, the
    generator [[R(t), sqrt(k1) e1 (1, 0)], [0, J]], R = T^-1 (-i M) T, is
    real, as T^-1 e1 = e1.  It does not depend on the input, so the panels
    of a run from model._gauged_panels share one exponential, and a run of
    pieces made of the same panels one product.  Those exponentials are one
    call of the block kernel model._magnus6_block_exp, with X = R(t),
    Y = sqrt(k1) e1 (1, 0) and Z = J = [[0, 1], [0, 0]], assembled into
    (P, 5, 5) panels.  One schedule call serves both panel counts; n is a
    power of two.
    """
    counts = (n, 2 * n)
    h = np.concatenate([np.repeat(lengths / m, m) for m in counts])
    t0 = np.concatenate([(starts[:, None] + (lengths / m)[:, None] * np.arange(m)).ravel() for m in counts])
    r, h_run, inverse = _gauged_panels(params, schedule, t0[:, None] + h[:, None] * _GL3_NODES, h)
    drive, slope = np.zeros((3, 2, 1)), np.zeros((3, 2, 2, 1))  # Y, and Z at the three nodes
    drive[0, 0], slope[:, 0, 1] = math.sqrt(params.kappa1), 1.0
    panels = np.zeros((5, 5, len(h_run)))
    panels[:3, :3], panels[:3, 3:], panels[3:, 3:] = _magnus6_block_exp(r, drive, slope, h_run)
    panels = np.moveaxis(panels, -1, 0)
    products = []
    for index in np.split(inverse, [n * starts.size]):
        index = index.reshape(starts.size, -1)
        fresh, piece = _runs(index)
        part = panels[index[fresh]]
        while part.shape[1] > 1:  # neighbouring panels, later one on the left
            part = part[:, 1::2] @ part[:, ::2]
        products.append(part[piece, 0])
    return products


def transmit_pulse_time(
    p_in: Pulse, params: SystemParams, schedule: CouplingSchedule
) -> Pulse:
    """Drive the network with the input pulse and read out -sqrt(k2) <a2(t)>.

    Solves d<v>/dt = -i M(t) <v> + sqrt(k1) (<a_in(t)>, 0, 0)^T with the
    input linear between samples, in the gauge <v> = T y' of _piece_maps,
    so z = [y'; a_in; d a_in/dt] obeys a real linear equation whose
    generator depends on the couplings alone.  Each grid interval, split at
    the schedule's kinks, is carried by sixth-order Magnus panels; step
    doubling sets their number per piece.  Piece j then maps y' to
    phi_j y' + c_j, and one model._scan over all pieces gives y' at every
    piece's end; <a2> = T[2] y'_2.  Supports arbitrary coupling schedules
    covering the pulse window, which is what enables output pulse
    engineering.
    """
    t_grid = p_in.times
    if abs(t_grid[0]) > 1e-12 * max(1.0, abs(t_grid[-1])):
        raise TransmissionError("input pulse must start at t = 0")
    if schedule.duration < t_grid[-1]:
        raise TransmissionError(
            f"schedule duration {schedule.duration} does not cover the pulse "
            f"window [0, {t_grid[-1]}]"
        )
    dt = p_in.dt
    u = p_in.amplitudes
    slope = np.diff(u) / dt

    # pieces: grid intervals split where the couplings kink
    edges = np.union1d(t_grid, schedule.kinks(0.0, t_grid[-1]))
    interval = np.searchsorted(t_grid, edges[:-1], side="right") - 1
    # whole intervals take the grid's dt, so that their keys repeat exactly
    lengths = np.where(np.bincount(interval)[interval] == 1, dt, np.diff(edges))
    starts = edges[:-1]

    # a piece is accepted at n panels when its map differs from the 2n-panel map by at
    # most _PULSE_TOL * peak, weighting the columns of z by bounds on |y| (|y|^2 <= int |u|^2
    # for a passive network), |u| and |du/dt|; a constant piece is accepted at one panel
    peak = float(np.abs(u).max())
    y_bound = math.sqrt(dt * float(np.vdot(u, u).real))
    weights = np.array([y_bound] * 3 + [peak, float(np.abs(slope).max())])
    tol = _PULSE_TOL * peak
    maps = np.empty((starts.size, 5, 5))
    counts = np.ones(starts.size, dtype=int)
    done = np.zeros(starts.size, dtype=bool)
    todo = np.arange(starts.size)
    while todo.size:
        if counts[todo].max() > 1 and 3 * counts[todo].sum() > _MAX_PANELS:
            raise TransmissionError(
                f"time-domain propagation needs more than {_MAX_PANELS} panels; "
                "the couplings vary too fast for the pulse grid"
            )
        for n in np.unique(counts[todo]):
            group = todo[counts[todo] == n]
            coarse, fine = _piece_maps(params, schedule, starts[group], lengths[group], int(n))
            err = (np.abs(fine[:, :3] - coarse[:, :3]) * weights).sum(-1).max(-1)
            if not np.isfinite(err).all():
                raise TransmissionError("time-domain propagation met non-finite couplings")
            ok = err <= tol
            maps[group[ok]], done[group[ok]] = coarse[ok], True
            # the error falls as n^-6: aim each open piece at half the budget
            shift = np.ceil(np.log2(2.0 * err[~ok] / tol) / 6.0)
            counts[group[~ok]] = n << np.minimum(shift, 20).astype(int)
        todo = todo[~done[todo]]

    # piece j maps y' to phi_j y' + c_j, u(s_j) on the interval's input line at its start s_j;
    # c as real (re, im) columns; both step-last and contiguous, where _mul's einsum is fast
    u_start = u[interval] + slope[interval] * (starts - t_grid[interval])
    maps = np.ascontiguousarray(maps[:, :3].transpose(1, 2, 0))
    phi, c = maps[:, :3], maps[:, 3] * u_start + maps[:, 4] * slope[interval]
    c = np.stack([c.real, c.imag], axis=1)
    _scan(phi, c, _mul)  # c_j becomes y' at the end of piece j
    re, im = np.compress(np.append(interval[1:] != interval[:-1], True), c[2], axis=-1)  # each interval's last piece
    y2 = np.append(0.0, re + 1j * im)  # <a2> = T[2] y'_2, T[2] real
    return Pulse(times=t_grid.copy(), amplitudes=-math.sqrt(params.kappa2) * _GAUGE[2].real * y2)


def pulse_to_csv(pulse: Pulse) -> str:
    a = pulse.amplitudes
    table = np.column_stack([pulse.times, a.real, a.imag, np.abs(a)])
    return build_csv(["t", "re", "im", "abs"], table)


def spectrum_to_csv(spec: TransmissionSpectrum) -> str:
    header = ["omega"] + [f"{part}_t{i}{j}" for i in "123" for j in "123" for part in ("re", "im")]
    # row-major T entries as interleaved (re, im) pairs, the header's order
    entries = np.ascontiguousarray(spec.matrices, dtype=complex).reshape(-1, 9).view(float)
    return build_csv(header, np.column_stack([spec.omegas, entries]))
