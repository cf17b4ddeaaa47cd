"""Physical parameters, coupling schedules, and the three-mode dynamic matrix.

The network consists of two cavity modes coupled to one mechanical mode by
beam-splitter interactions with (possibly time-dependent) strengths g1(t)
and g2(t).  All rates are expressed in a single reference rate ``g_ref``
and times in ``1/g_ref``; the library never converts units.

The in-rotating-frame drift matrix for the mode vector (a1, bm, a2) is

    M = [[-i*kappa1/2,  g1,          0         ],
         [ g1,          -i*gamma_m/2, g2        ],
         [ 0,            g2,          -i*kappa2/2]]

which is complex symmetric with real off-diagonal couplings.  Cavities
couple only through the mechanical mode (entries (1,3) and (3,1) vanish).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemParams",
    "CouplingSchedule",
    "ConstantCoupling",
    "TrigSchedule",
    "PiecewiseLinearSchedule",
    "TanhRampSchedule",
    "DynamicMatrix",
    "drift_stack",
    "build_dynamic_matrix",
    "dynamic_matrix_at",
    "coupling_at",
    "adiabaticity",
]


class ModelError(ValueError):
    """Invalid parameters or schedule evaluation outside its domain."""


@dataclass(frozen=True)
class SystemParams:
    """Damping rates and bath occupation of the three-mode network.

    kappa1, kappa2 : cavity amplitude damping rates [g_ref]
    gamma_m        : mechanical damping rate [g_ref]
    n_th           : thermal occupation of the mechanical bath
    omega_m        : optional mechanical frequency, used only to validate
                     the resolved-sideband regime
    detuning1/2    : optional laser detunings; when given they must sit at
                     two-photon resonance, detuning_i = -omega_m, exactly
    """

    kappa1: float
    kappa2: float
    gamma_m: float = 0.0
    n_th: float = 0.0
    omega_m: float | None = None
    detuning1: float | None = None
    detuning2: float | None = None

    def __post_init__(self) -> None:
        for name in ("kappa1", "kappa2", "gamma_m", "n_th"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.omega_m is not None:
            rates = (self.kappa1, self.kappa2, self.gamma_m)
            if not all(r < self.omega_m for r in rates):
                raise ModelError(
                    "resolved-sideband validation failed: kappa1, kappa2, gamma_m "
                    f"must all be < omega_m = {self.omega_m}"
                )
            if any(r > self.omega_m / 10 for r in rates):
                warnings.warn(
                    "damping rates exceed omega_m/10; the rotating-wave model "
                    "is only marginally valid",
                    stacklevel=2,
                )
        if self.detuning1 is not None or self.detuning2 is not None:
            if self.omega_m is None or self.detuning1 is None or self.detuning2 is None:
                raise ModelError(
                    "detunings require both detuning1, detuning2 and omega_m"
                )
            if not (self.detuning1 == self.detuning2 == -self.omega_m):
                raise ModelError(
                    "only the two-photon resonant point detuning1 = detuning2 = "
                    f"-omega_m is supported, got ({self.detuning1}, {self.detuning2}) "
                    f"with omega_m = {self.omega_m}"
                )

    @property
    def damping_diagonal(self) -> np.ndarray:
        """K as a length-3 vector (kappa1, gamma_m, kappa2)."""
        return np.array([self.kappa1, self.gamma_m, self.kappa2])

    @property
    def damping_matrix(self) -> np.ndarray:
        """K = diag(kappa1, gamma_m, kappa2)."""
        return np.diag(self.damping_diagonal)


class CouplingSchedule:
    """Time-dependent coupling pair (g1(t), g2(t)) on [0, duration].

    values, derivatives and g0 take a 0-d or n-d float t and return arrays
    of its shape; subclasses write one numpy formula that serves both.
    Every time must lie in [0, duration], or ModelError names the first one
    outside it (NaN included).
    """

    duration: float

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _check_domain(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        outside = ~((t >= 0.0) & (t <= self.duration))
        if outside.any():
            raise ModelError(
                f"time {t[outside][0]} outside the schedule domain [0, {self.duration}]"
            )
        return t

    def g0(self, t) -> np.ndarray:
        return np.hypot(*self.values(t))


@dataclass(frozen=True)
class ConstantCoupling(CouplingSchedule):
    """Fixed couplings; defined for all t >= 0 unless a duration is given."""

    g1: float
    g2: float
    duration: float = math.inf

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        t = self._check_domain(t)
        return np.full_like(t, self.g1), np.full_like(t, self.g2)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        t = self._check_domain(t)
        return np.zeros_like(t), np.zeros_like(t)


@dataclass(frozen=True)
class TrigSchedule(CouplingSchedule):
    """Quarter-period trigonometric ramp used for adiabatic conversion.

    g1(t) = A sin(pi t / 2T),  g2(t) = -A cos(pi t / 2T)

    so g2 starts at -A with g1 = 0 and they swap roles at t = T while
    g0 = A stays constant.  With A = 5 and T = pi/2 this is the schedule
    g1 = 5 sin t, g2 = -5 cos t.
    """

    amplitude: float
    duration: float

    def __post_init__(self) -> None:
        if self.amplitude <= 0 or self.duration <= 0:
            raise ModelError("TrigSchedule requires positive amplitude and duration")

    @property
    def _rate(self) -> float:
        return math.pi / (2.0 * self.duration)

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        th = self._rate * self._check_domain(t)
        return self.amplitude * np.sin(th), -self.amplitude * np.cos(th)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        th = self._rate * self._check_domain(t)
        w = self.amplitude * self._rate
        return w * np.cos(th), w * np.sin(th)


@dataclass(frozen=True)
class PiecewiseLinearSchedule(CouplingSchedule):
    """Linear interpolation between breakpoints (times, g1_values, g2_values)."""

    times: tuple[float, ...]
    g1_values: tuple[float, ...]
    g2_values: tuple[float, ...]
    duration: float = field(init=False)

    def __post_init__(self) -> None:
        if len(self.times) < 2 or len(self.times) != len(self.g1_values) or len(
            self.times
        ) != len(self.g2_values):
            raise ModelError("need matching times/g1/g2 arrays with >= 2 breakpoints")
        if self.times[0] != 0.0:
            raise ModelError("first breakpoint must be at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ModelError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "duration", self.times[-1])

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        t = self._check_domain(t)
        return np.interp(t, self.times, self.g1_values), np.interp(t, self.times, self.g2_values)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        # breakpoints take the right-hand slope, t = duration the left-hand one
        k = np.searchsorted(self.times, self._check_domain(t), side="right")
        k = np.minimum(k, len(self.times) - 1) - 1
        slopes = np.diff([self.g1_values, self.g2_values]) / np.diff(self.times)
        return slopes[0][k], slopes[1][k]


@dataclass(frozen=True)
class TanhRampSchedule(CouplingSchedule):
    """Smooth counter-ramp: g1 switches on while -g2 switches off.

    g1(t) =  g_max (1 + tanh((t - center)/width)) / 2
    g2(t) = -g_max (1 - tanh((t - center)/width)) / 2

    g0 stays bounded away from zero, so the ramp is usable for adiabatic
    transfer at any duration covering the crossover.
    """

    g_max: float
    center: float
    width: float
    duration: float

    def __post_init__(self) -> None:
        if self.g_max <= 0 or self.width <= 0 or self.duration <= 0:
            raise ModelError("TanhRampSchedule requires positive g_max, width, duration")

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        s = np.tanh((self._check_domain(t) - self.center) / self.width)
        return 0.5 * self.g_max * (1.0 + s), -0.5 * self.g_max * (1.0 - s)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        x = (self._check_domain(t) - self.center) / self.width
        d = 0.5 * self.g_max / (self.width * np.cosh(x) ** 2)
        return d, d


@dataclass(frozen=True, eq=False)
class DynamicMatrix:
    """Drift matrix M at one instant, plus the damping diagonal it was built from."""

    entries: np.ndarray
    damping: np.ndarray
    time_tag: float = 0.0

    @property
    def g1(self) -> float:
        return float(self.entries[0, 1].real)

    @property
    def g2(self) -> float:
        return float(self.entries[1, 2].real)

    @property
    def g0(self) -> float:
        return math.hypot(self.g1, self.g2)

    @property
    def damping_matrix(self) -> np.ndarray:
        return np.diag(self.damping)

    @property
    def sqrt_damping(self) -> np.ndarray:
        return np.diag(np.sqrt(self.damping))


def drift_stack(damping, g1, g2) -> np.ndarray:
    """Complex (..., 3, 3) stack of M; exact by construction.

    damping (..., 3) holds (kappa1, gamma_m, kappa2); g1, g2 broadcast against its leading axes.
    """
    damping = np.asarray(damping)
    m = np.zeros(np.broadcast(damping[..., 0], g1, g2).shape + (9,), complex)  # row-major 3x3
    m[..., ::4] = -0.5j * damping
    m[..., 1] = m[..., 3] = g1
    m[..., 5] = m[..., 7] = g2
    return m.reshape(m.shape[:-1] + (3, 3))


def build_dynamic_matrix(
    params: SystemParams, g1: float, g2: float, time_tag: float = 0.0
) -> DynamicMatrix:
    """Assemble M for given couplings; exact by construction."""
    damping = params.damping_diagonal
    return DynamicMatrix(entries=drift_stack(damping, g1, g2), damping=damping, time_tag=time_tag)


def dynamic_matrix_at(
    params: SystemParams, schedule: CouplingSchedule, t: float
) -> DynamicMatrix:
    """M(t) for a schedule, tagged with the build time."""
    g1, g2 = schedule.values(t)
    return build_dynamic_matrix(params, g1, g2, time_tag=t)


def coupling_at(schedule: CouplingSchedule, t) -> tuple[np.ndarray, ...]:
    """(g1, g2, dg1/dt, dg2/dt) at the time(s) t; raises outside [0, duration]."""
    g1, g2 = schedule.values(t)
    d1, d2 = schedule.derivatives(t)
    return g1, g2, d1, d2


def adiabaticity(schedule: CouplingSchedule, n_samples: int = 1001) -> float:
    """max over interior samples of max_i |dg_i/dt| / g0(t)^2.

    A value well below 1 indicates the schedule satisfies the adiabatic
    condition.  Sampling avoids the endpoints where schedules may have
    one-sided derivatives.
    """
    if n_samples < 1:
        raise ModelError("n_samples must be positive")
    span = schedule.duration if math.isfinite(schedule.duration) else 1.0
    t = span * np.arange(1, n_samples + 1) / (n_samples + 1)
    g1, g2, d1, d2 = coupling_at(schedule, t)
    g0sq = g1 * g1 + g2 * g2
    vanishes = g0sq == 0.0
    if vanishes.any():
        raise ModelError(f"g0 vanishes at interior time t = {t[vanishes][0]}")
    return float((np.maximum(np.abs(d1), np.abs(d2)) / g0sq).max())
