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
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "SystemParams",
    "CouplingSchedule",
    "ConstantCoupling",
    "TrigSchedule",
    "PiecewiseLinearSchedule",
    "TanhRampSchedule",
    "drift_stack",
    "dynamic_matrix_at",
    "adiabaticity",
]


class ModelError(ValueError):
    """Invalid parameters or schedule evaluation outside its domain."""


def _outside_caller() -> int:
    """warnings stacklevel of the first frame outside this package and dataclasses.

    As with Python 3.12's skip_file_prefixes, a warning then names the caller's
    line, and repeats of it from different internal call sites print once.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_back:
        # __spec__ names a module run by `python -m` too; generated __init__s run in their class's module
        spec = frame.f_globals.get("__spec__")
        if getattr(spec, "name", "").split(".")[0] not in (__package__, "dataclasses"):
            break
        level, frame = level + 1, frame.f_back
    return level


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
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{f.name} must be finite, got {value}")
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
                    stacklevel=_outside_caller(),
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


class CouplingSchedule:
    """Time-dependent coupling pair (g1(t), g2(t)) on [0, duration].

    values, derivatives and g0 take a 0-d or n-d float t and return arrays
    of its shape; subclasses write one numpy formula that serves both.
    Every time must lie in [0, duration], or ModelError names the first one
    outside it (NaN included).  A schedule is built from finite numbers
    only; ConstantCoupling alone may last forever.
    """

    duration: float

    def _check_finite(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ModelError(f"{type(self).__name__} {name} must be finite, got {value}")

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def kinks(self, lo: float, hi: float) -> np.ndarray:
        """Times strictly between lo and hi where the couplings may kink; none by default."""
        return np.empty(0)

    def probe_times(self, span: float, n: int) -> np.ndarray:
        """Each kink in (0, span) and n equally spaced interior times of every piece between them.

        adiabaticity, fs_bound and integrate's peak coupling sample the couplings here, in increasing
        order, so a ramp narrower than the spacing still meets a kink; span * k / (n + 1) without kinks.
        """
        edges = np.array([0.0, *self.kinks(0.0, span), span])
        lo, width = edges[:-1, None], np.diff(edges)[:, None]
        # each piece's left end and interior times; t = 0 is dropped
        return (lo + width * np.arange(n + 1) / (n + 1)).ravel()[1:]

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

    def __post_init__(self) -> None:
        self._check_finite("g1", "g2")
        if not self.duration > 0:
            raise ModelError(f"ConstantCoupling requires a positive duration, got {self.duration}")

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
        self._check_finite("amplitude", "duration")
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
        self._check_finite("times", "g1_values", "g2_values")
        if len(self.times) < 2 or len(self.times) != len(self.g1_values) or len(
            self.times
        ) != len(self.g2_values):
            raise ModelError("need matching times/g1/g2 arrays with >= 2 breakpoints")
        if self.times[0] != 0.0:
            raise ModelError("first breakpoint must be at t = 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ModelError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "duration", self.times[-1])

    def kinks(self, lo: float, hi: float) -> np.ndarray:
        """The breakpoints strictly between lo and hi."""
        times = np.array(self.times)
        return times[(lo < times) & (times < hi)]

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
        self._check_finite("g_max", "center", "width", "duration")
        if self.g_max <= 0 or self.width <= 0 or self.duration <= 0:
            raise ModelError("TanhRampSchedule requires positive g_max, width, duration")

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        s = np.tanh((self._check_domain(t) - self.center) / self.width)
        return 0.5 * self.g_max * (1.0 + s), -0.5 * self.g_max * (1.0 - s)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        x = (self._check_domain(t) - self.center) / self.width
        e = np.exp(-2.0 * np.abs(x))  # sech^2 x = 4 e / (1 + e)^2 underflows to 0, never overflows
        d = 2.0 * self.g_max * e / (self.width * (1.0 + e) ** 2)
        return d, d


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


# T = diag(1, -i, -1) makes T^-1 (-i M) T real; its unit factors change no bit of a nonzero entry
_GAUGE = np.array([1.0, -1j, -1.0])
_GAUGE_FACTOR = -1j * _GAUGE.conj()[:, None] * _GAUGE


def _gauged_drift(m: np.ndarray) -> np.ndarray:
    """Real (..., 3, 3) stack R = T^-1 (-i M) T of a drift_stack M; T^-1 (i M*) T is R^T, as M = M^T."""
    return (m * _GAUGE_FACTOR).real


# Gauss–Legendre nodes of [0, 1] at which _magnus6_block_exp takes the generator
_GL3_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows that differ from the row before, and each row's index among them."""
    fresh = np.append(True, (rows[1:] != rows[:-1]).any(axis=1))
    return fresh, np.cumsum(fresh) - 1


def _gauged_panels(params: SystemParams, schedule: CouplingSchedule, ts: np.ndarray, h):
    """Real R = T^-1 (-i M) T at the nodes of S Magnus steps, one panel per run of equal steps.

    ts (S, 3) holds each step's node times t + _GL3_NODES * h, and h (a
    scalar or (S,)) its length.  A step whose row (h, g1 and g2 at its
    nodes) equals the row before joins that row's run: the steps of a run
    share one generator, so one exponential serves them all.  Returns R
    (3 nodes, 3, 3, runs), contiguous with the step axis last as
    _magnus6_block_exp takes it, the runs' h (runs,) and each step's run
    index (S,), which expands per-run results back to steps through
    np.take(..., run, axis=-1).
    """
    g1, g2 = schedule.values(ts)
    keys = np.column_stack([np.broadcast_to(h, len(ts)), g1, g2])
    fresh, run = _runs(keys)
    keys = keys[fresh].T
    r = np.moveaxis(_gauged_drift(drift_stack(params.damping_diagonal, keys[1:4], keys[4:])), 1, -1)
    return np.ascontiguousarray(r), keys[0], run


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked product of (n, k, S) and (k, m, S) arrays, step axis last; either S may be 1.

    The step axis must vary fastest in memory (|stride| = itemsize), so step
    subsets are taken with np.compress or np.take, never a[..., mask] or
    a[..., index]: on other layouts einsum runs about 10x slower.  On the
    layouts tests/test_model.py covers (contiguous operands, an S of 1 on
    either side, a with its first two axes swapped, b with its step axis
    reversed), einsum sums the k products left to right onto a zeroed
    output, each product unfused, bit for bit.  Nothing is claimed for
    other layouts: with S = 1 and b transposed einsum sums in another
    order, so a column's product rounds differently alone than inside a
    stack.
    """
    return np.einsum("ijs,jks->iks", a, b)


def _scan(a: np.ndarray, b: np.ndarray, act) -> None:
    """Compose the affine maps x -> a_k x + b_k of S steps in place by an inclusive doubling scan.

    Hillis & Steele, CACM 29, 1986: for d = 1, 2, 4, ... < S every step
    k >= d becomes (a_k a_{k-d}, act(a_k, b_{k-d}) + b_k), map k - d
    followed by map k, so after log2 S rounds step k holds the map from
    the start of step 0 to the end of step k.  act(a, b) is the action of
    a on b (a b for vectors, a b a^T for covariances).  a (n, n, S) and
    b (..., S) are step-last as _mul takes them.
    """
    d = 1
    while d < a.shape[-1]:
        ak = a[..., d:]
        b[..., d:] += act(ak, b[..., :-d])
        a[..., d:] = _mul(ak, a[..., :-d])
        d *= 2


def _comm(p, q):
    """Commutator [P, Q] of block upper-triangular generators given as (X, Y, Z) blocks."""
    (px, py, pz), (qx, qy, qz) = p, q
    y = (_mul(px, qy) - _mul(qy, pz)) + (_mul(py, qz) - _mul(qx, py))
    return _mul(px, qx) - _mul(qx, px), y, _mul(pz, qz) - _mul(qz, pz)


def _combine(*terms):
    """sum of c P over (c, P) terms of (X, Y, Z) block triples, block by block."""
    return tuple(sum(c * p[i] for c, p in terms) for i in range(3))


def _magnus6_block_omega(x: np.ndarray, y: np.ndarray, z: np.ndarray, h):
    """Sixth-order Magnus exponent of dPhi/dt = [[X(t), Y], [0, Z(t)]] Phi, as (X, Y, Z) blocks.

    Arguments as for _magnus6_block_exp.  Blanes, Casas, Oteo & Ros, Phys.
    Rep. 470, 151 (2009), from block commutators: a constant generator gives
    exactly h A, and a Y constant over the step gives b2 and b3 a zero Y block.
    """
    h = np.asarray(h, dtype=float)
    h2, h3 = math.sqrt(15.0) / 3.0 * h, 10.0 / 3.0 * h
    zero = np.zeros(y.shape[:2] + (1,))
    b1 = (h * x[1], h * y, h * z[1])
    b2 = (h2 * (x[2] - x[0]), zero, h2 * (z[2] - z[0]))
    b3 = (h3 * (x[2] - 2.0 * x[1] + x[0]), zero, h3 * (z[2] - 2.0 * z[1] + z[0]))
    c1 = _comm(b1, b2)
    c2 = _comm(b1, _combine((2.0, b3), (1.0, c1)))
    w = _comm(_combine((-20.0, b1), (-1.0, b3), (1.0, c1)), _combine((1.0, b2), (-1.0 / 60.0, c2)))
    return _combine((1.0, b1), (1.0 / 12.0, b3), (1.0 / 240.0, w))


def _magnus6_block_exp(x: np.ndarray, y: np.ndarray, z: np.ndarray, h):
    """Propagators of dPhi/dt = [[X(t), Y], [0, Z(t)]] Phi over S steps of length h, as blocks.

    x (3, n, n, S) and z (3, m, m, S) hold X and Z at t + _GL3_NODES * h,
    and y (n, m, S) the Y that is constant over each step, all with the step
    axis last and contiguous; an S of 1 broadcasts.  h is a scalar or (S,).
    Returns Phi11 (n, n, S), Phi12 (n, m, S) and Phi22 (m, m, S) of
    exp(Omega), Omega from _magnus6_block_omega; Phi21 = 0.  exp is a Taylor
    polynomial of Omega / 2^s in block Horner form, where s brings the
    1-norm to at most 1/4, squared s times block by block.  Its degree is
    the least m <= 12 whose truncation term theta^(m+1)/(m+1)! is at most
    3e-18 at the stack's largest scaled norm theta (m = 12 at theta = 1/4).
    Both callers, gaussian._magnus_samples and transmission._piece_maps,
    pass real float64 blocks built from _gauged_panels.
    """
    ox, oy, oz = _magnus6_block_omega(x, y, z, h)
    norm = np.maximum(np.abs(ox).sum(0).max(0), (np.abs(oy).sum(0) + np.abs(oz).sum(0)).max(0))
    s = np.maximum(np.frexp(norm * 4.0)[1], 0)
    scale = np.ldexp(1.0, -s)
    theta = float((norm * scale).max(initial=0.0))
    degree = next((m for m in range(1, 12) if theta ** (m + 1) / math.factorial(m + 1) <= 3e-18), 12)
    ox, oy, oz = ox * scale, oy * scale, oz * scale
    i11, i22 = np.eye(len(ox))[..., None], np.eye(len(oz))[..., None]
    e11, e12, e22 = ox / degree + i11, oy / degree, oz / degree + i22
    for k in range(degree - 1, 0, -1):  # E = I + Omega E / k, block by block
        e11, e12, e22 = _mul(ox, e11), _mul(ox, e12) + _mul(oy, e22), _mul(oz, e22)
        for e in (e11, e12, e22):
            e *= 1.0 / k
        e11 += i11
        e22 += i22
    for j in range(int(s.max(initial=0))):
        more = np.flatnonzero(s > j)
        p11, p12, p22 = (e.take(more, axis=-1) for e in (e11, e12, e22))
        e11[..., more], e12[..., more], e22[..., more] = (
            _mul(p11, p11), _mul(p11, p12) + _mul(p12, p22), _mul(p22, p22)
        )
    return e11, e12, e22


def dynamic_matrix_at(params: SystemParams, schedule: CouplingSchedule, t: float) -> np.ndarray:
    """Complex (3, 3) M(t) of a schedule."""
    return drift_stack(params.damping_diagonal, *schedule.values(t))


def adiabaticity(schedule: CouplingSchedule, n_samples: int = 1001) -> float:
    """max over interior samples of max_i |dg_i/dt| / g0(t)^2.

    A value well below 1 indicates the schedule satisfies the adiabatic
    condition.  The samples are schedule.probe_times(duration, n_samples)
    ([0, 1] for an endless schedule): every kink, with its right-hand slope,
    and n_samples interior times of each piece between them.  The
    endpoints, where schedules may have one-sided derivatives, are not
    sampled.
    """
    if n_samples < 1:
        raise ModelError("n_samples must be positive")
    t = schedule.probe_times(schedule.duration if math.isfinite(schedule.duration) else 1.0, n_samples)
    (g1, g2), (d1, d2) = schedule.values(t), schedule.derivatives(t)
    g0sq = g1 * g1 + g2 * g2
    vanishes = g0sq == 0.0
    if vanishes.any():
        raise ModelError(f"g0 vanishes at interior time t = {t[vanishes][0]}")
    return float((np.maximum(np.abs(d1), np.abs(d2)) / g0sq).max())
