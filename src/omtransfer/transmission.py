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

Time-dependent couplings are handled by direct RK4 integration of the
driven mean equation, which doubles as an independent cross-check of the
FFT path for constant couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import build_csv
from .model import CouplingSchedule, SystemParams, build_dynamic_matrix, drift_stack

__all__ = [
    "TransmissionError",
    "Pulse",
    "TransmissionSpectrum",
    "TransmissionReport",
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
    "transmission_report",
    "pulse_to_csv",
    "spectrum_to_csv",
]

_EDGE_DECAY = 1e-6


class TransmissionError(RuntimeError):
    """Invalid pulse grid, singular response, or failed bracket search."""


@dataclass(eq=False)
class Pulse:
    """Complex mean-field time series on a uniform grid."""

    times: np.ndarray
    amplitudes: np.ndarray
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.times.ndim != 1 or self.times.size < 2:
            raise TransmissionError("pulse needs at least two samples")
        if self.amplitudes.shape != self.times.shape:
            raise TransmissionError("times and amplitudes must have equal length")
        steps = np.diff(self.times)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.mean():
            raise TransmissionError("pulse grid must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega, a(omega)) with a(omega) = int dt/sqrt(2pi) a(t) e^{i omega t}."""
        if self._spectrum is None:
            n = self.times.size
            omegas = 2.0 * math.pi * np.fft.fftfreq(n, d=self.dt)
            amps = (
                n
                * self.dt
                / math.sqrt(2.0 * math.pi)
                * np.fft.ifft(self.amplitudes)
                * np.exp(1j * omegas * self.times[0])
            )
            order = np.argsort(omegas)
            self._spectrum = (omegas[order], amps[order])
        return self._spectrum


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


@dataclass(frozen=True)
class TransmissionReport:
    t31_resonant: float
    half_width_analytic: float
    half_width_numeric: float
    pulse_fidelity: float


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


def _t31_values(
    params: SystemParams, g1: float, g2: float, omegas: np.ndarray
) -> np.ndarray:
    """T31 on a frequency grid via det(wI - M) = w^3 + b w^2 + c w + d in closed form."""
    if params.kappa1 == 0.0 or params.kappa2 == 0.0:
        return np.zeros_like(omegas, dtype=complex)
    d1, d2, dm = -0.5j * params.kappa1, -0.5j * params.kappa2, -0.5j * params.gamma_m
    b = -(d1 + dm + d2)
    c = d1 * dm + d1 * d2 + dm * d2 - g1 * g1 - g2 * g2
    d = -(d1 * dm * d2 - d1 * g2 * g2 - d2 * g1 * g1)
    det = ((omegas + b) * omegas + c) * omegas + d
    return -1j * math.sqrt(params.kappa1 * params.kappa2) * g1 * g2 / det


def _transfer_stack(params: SystemParams, g1: float, g2: float, omegas: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of T(w) = I - i sqrt(K) (Iw - M)^{-1} sqrt(K); identity when K = 0."""
    eye = np.eye(3, dtype=complex)
    if params.kappa1 == params.kappa2 == params.gamma_m == 0.0:
        return np.broadcast_to(eye, (omegas.size, 3, 3)).copy()
    drift = build_dynamic_matrix(params, g1, g2)
    m = omegas[:, None, None] * eye - drift.entries
    singular = np.abs(np.linalg.det(m)) < 1e-300
    if singular.any():
        omega = float(omegas[np.argmax(singular)])
        raise TransmissionError(f"(I w - M) is singular at omega = {omega}")
    sqrt_k = np.sqrt(drift.damping)
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

    The numeric value bisects |T31(w)| - |T31(0)|/2 for the smallest positive
    crossing inside (0, g0/2]; the bracket excludes the normal-mode structure
    near +-g0.
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

    target = 0.5 * abs(_t31_values(params, g1, g2, np.array([0.0]))[0])
    f = lambda w: abs(_t31_values(params, g1, g2, np.array([w]))[0]) - target
    n_scan = 2048
    grid = g0 / 2.0 * np.arange(1, n_scan + 1) / n_scan
    ws = np.concatenate([[0.0], grid])
    vals = np.concatenate([[f(0.0)], np.abs(_t31_values(params, g1, g2, grid)) - target])
    crossings = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if crossings.size == 0:
        raise TransmissionError(
            "no half-width crossing in (0, g0/2]; outside the validity regime"
        )
    lo, hi = ws[crossings[0]], ws[crossings[0] + 1]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return analytic, 0.5 * (lo + hi)


def _common_grid(p1: Pulse, p2: Pulse) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if p1.times.size == p2.times.size and np.allclose(
        p1.times, p2.times, rtol=0.0, atol=1e-12 * max(1.0, abs(p1.times[-1]))
    ):
        return p1.times, p1.amplitudes, p2.amplitudes
    dt = min(p1.dt, p2.dt)
    t0 = min(p1.times[0], p2.times[0])
    t1 = max(p1.times[-1], p2.times[-1])
    grid = np.arange(t0, t1 + 0.5 * dt, dt)

    def resample(p: Pulse) -> np.ndarray:
        re = np.interp(grid, p.times, p.amplitudes.real, left=0.0, right=0.0)
        im = np.interp(grid, p.times, p.amplitudes.imag, left=0.0, right=0.0)
        return re + 1j * im

    return grid, resample(p1), resample(p2)


def pulse_energy(p: Pulse) -> float:
    return float(np.trapezoid(np.abs(p.amplitudes) ** 2, p.times))


def pulse_fidelity(p_in: Pulse, p_out: Pulse) -> float:
    """Normalized modulus-squared overlap of the two mean pulses (trapezoid rule)."""
    grid, a, b = _common_grid(p_in, p_out)
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
    and the output is returned on the padded grid.
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
    padded = np.zeros(n, dtype=complex)
    padded[:n0] = amps
    spec = np.fft.ifft(padded)
    omegas = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    out = np.fft.fft(spec * _t31_values(params, g1, g2, omegas))
    times = p_in.times[0] + dt * np.arange(n)
    return Pulse(times=times, amplitudes=out)


def transmit_pulse_time(
    p_in: Pulse, params: SystemParams, schedule: CouplingSchedule
) -> Pulse:
    """Drive the network with the input pulse and read out -sqrt(k2) <a2(t)>.

    Integrates d<v>/dt = -i M(t) <v> + sqrt(k1) (<a_in(t)>, 0, 0)^T with RK4,
    interpolating the input linearly between samples.  Supports arbitrary
    coupling schedules covering the pulse window, which is what enables
    output pulse engineering.
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
    g_probe = float(schedule.g0(np.linspace(0.0, t_grid[-1], 33)).max())
    g_scale = max(1.0, g_probe, params.kappa1, params.kappa2)
    # fixed RK4 substep keeping the accumulated phase error ~1e-5 relative
    h_target = (120.0 * 3e-5 / (max(t_grid[-1], 1.0) * g_scale**5)) ** 0.25
    n_sub = max(1, math.ceil(dt / min(h_target, dt)))
    h = dt / n_sub
    n_int = t_grid.size - 1

    re, im = p_in.amplitudes.real, p_in.amplitudes.imag

    def u_at(ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, t_grid, re) + 1j * np.interp(ts, t_grid, im)

    drive = math.sqrt(params.kappa1)
    damping = params.damping_diagonal
    starts = t_grid[:-1]

    # fold the n_sub RK4 substeps of every interval into one affine update
    # y_{k+1} = Phi_k y_k + e_k, built fully vectorized over intervals
    phi = np.broadcast_to(np.eye(3, dtype=complex), (n_int, 3, 3)).copy()
    acc = np.zeros((n_int, 3), dtype=complex)
    for j in range(n_sub):
        t0 = starts + j * h
        # A(t) = -i M(t) at the substep's three RK4 stage times, clamped to the schedule end
        ts = np.minimum(t0 + np.array([[0.0], [0.5 * h], [h]]), schedule.duration)
        a_n, a_h, a_f = np.multiply(-1j, drift_stack(damping, *schedule.values(ts)))
        u_n = drive * u_at(t0)
        u_h = drive * u_at(t0 + 0.5 * h)
        u_f = drive * u_at(t0 + h)

        def step(y: np.ndarray, c_n, c_h, c_f) -> np.ndarray:
            k1 = np.einsum("nij,nj...->ni...", a_n, y) + c_n
            k2 = np.einsum("nij,nj...->ni...", a_h, y + 0.5 * h * k1) + c_h
            k3 = np.einsum("nij,nj...->ni...", a_h, y + 0.5 * h * k2) + c_h
            k4 = np.einsum("nij,nj...->ni...", a_f, y + h * k3) + c_f
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        zero = 0.0
        phi = step(phi, zero, zero, zero)
        e1 = np.zeros((n_int, 3), dtype=complex)
        e1[:, 0] = 1.0
        acc = step(acc, u_n[:, None] * e1, u_h[:, None] * e1, u_f[:, None] * e1)
        # acc was advanced as a state; the fold is exact because the update is affine

    y = np.zeros(3, dtype=complex)
    out = np.empty(t_grid.size, dtype=complex)
    sqrt_k2 = math.sqrt(params.kappa2)
    out[0] = -sqrt_k2 * y[2]
    for k in range(n_int):
        y = phi[k] @ y + acc[k]
        out[k + 1] = -sqrt_k2 * y[2]
    return Pulse(times=t_grid.copy(), amplitudes=out)


def transmission_report(
    params: SystemParams, g1: float, g2: float, p_in: Pulse, p_out: Pulse
) -> TransmissionReport:
    hw_an, hw_num = half_width(params, g1, g2)
    return TransmissionReport(
        t31_resonant=t31_resonant(params, g1, g2).value,
        half_width_analytic=hw_an,
        half_width_numeric=hw_num,
        pulse_fidelity=pulse_fidelity(p_in, p_out),
    )


def pulse_to_csv(pulse: Pulse) -> str:
    a = pulse.amplitudes
    table = np.column_stack([pulse.times, a.real, a.imag, np.abs(a)])
    return build_csv(["t", "re", "im", "abs"], table)


def spectrum_to_csv(spec: TransmissionSpectrum) -> str:
    header = ["omega"] + [f"{part}_t{i}{j}" for i in "123" for j in "123" for part in ("re", "im")]
    # row-major T entries as interleaved (re, im) pairs, the header's order
    entries = np.ascontiguousarray(spec.matrices, dtype=complex).reshape(-1, 9).view(float)
    return build_csv(header, np.column_stack([spec.omegas, entries]))
