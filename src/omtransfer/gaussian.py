"""Exact Gaussian-state evolution under the three-mode Langevin dynamics.

The quantum Langevin equation i dv/dt = M(t) v + i sqrt(K) v_in is linear,
so Gaussian states stay Gaussian and are fully described by the mean
vector <v>, the normal-ordered central moments N[j,k] = <dv_j^+ dv_k>, and
the anomalous central moments A[j,k] = <dv_j dv_k>.  With delta-correlated
inputs (cavity baths at zero temperature, mechanical bath at occupation
n_th) the moment equations read

    d<v>/dt = -i M <v>
    dN/dt   =  i M* N - i N M + diag(0, gamma_m n_th, 0)
    dA/dt   = -i (M A + A M)

using M = M^T.  Quadrature covariances use the vacuum = identity
convention, x = a + a^+, p = -i(a - a^+).

Single-mode reductions feed the Gaussian Uhlmann fidelity, which is
cross-checked by an independent truncated Fock-basis oracle.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import _GAUGE, _GL3_NODES, CouplingSchedule, SystemParams, _gauged_drift, _magnus6_block_exp, _mul, drift_stack

__all__ = [
    "GaussianError",
    "PhysicalityError",
    "SingleModeGaussian",
    "ThreeModeGaussianState",
    "Trajectory",
    "make_squeezed_coherent",
    "embed_initial",
    "integrate",
    "integrate_batch",
    "reduce_to_mode",
    "gaussian_fidelity",
    "fock_oracle_fidelity",
]


class GaussianError(ValueError):
    """Invalid Gaussian-state data or fidelity evaluation failure."""


class PhysicalityError(GaussianError):
    """A state violated the uncertainty relation beyond tolerance."""


@dataclass(frozen=True)
class SingleModeGaussian:
    """One bosonic mode: mean amplitude plus central second moments.

    n_ex = <da^+ da> (excess occupation), m_an = <da da>.
    """

    mean: complex
    n_ex: float
    m_an: complex

    def __post_init__(self) -> None:
        if not np.isfinite([self.mean, self.n_ex, self.m_an]).all():
            raise GaussianError("moments must be finite")
        if self.n_ex < 0:
            raise GaussianError(f"n_ex must be non-negative, got {self.n_ex}")
        # 2 min eig of the Gram matrix [[1 + n, m], [m*, n]], bounded as in _first_fault:
        # relative to the moments' size, since rounding grows with n for strong squeezing.
        # hypot never squares |m|, which overflows past r = 178
        m = abs(self.m_an)
        defect = 2.0 * self.n_ex + 1.0 - math.hypot(1.0, 2.0 * m)
        if defect < -1e-8 * max(1.0, self.n_ex, m):
            raise PhysicalityError(
                f"unphysical moments: n(n+1) < |m|^2 with n = {self.n_ex:.6g}, |m| = {m:.6g} (defect {defect:.3e})"
            )

    @property
    def covariance(self) -> np.ndarray:
        """2x2 quadrature covariance, vacuum = identity."""
        return np.array(
            [
                [1.0 + 2.0 * self.n_ex + 2.0 * self.m_an.real, 2.0 * self.m_an.imag],
                [2.0 * self.m_an.imag, 1.0 + 2.0 * self.n_ex - 2.0 * self.m_an.real],
            ]
        )

    @property
    def quadrature_mean(self) -> np.ndarray:
        return np.array([2.0 * self.mean.real, 2.0 * self.mean.imag])


_SCREEN_SHIFT = 0.25e-8  # below the check's 0.5e-8 (see _first_fault)


def _first_fault(
    mean: np.ndarray, normal: np.ndarray, anomalous: np.ndarray
) -> tuple[int, GaussianError] | None:
    """First row of (P, 3) mean and (P, 3, 3) moment stacks that is no Gaussian state, with its error.

    The first faulty row reports the first of the checks below that it fails.
    sigma + i Omega = 2 U R U^+ for a unitary U, with R = [[1 + N^T, A], [A*, N]]
    the Gram matrix of the fluctuations (da, da^+); the defect is 2 min eig R.

    The uncertainty check rejects defect < -1e-8 scale, that is min eig R <
    -0.5e-8 scale.  One batched Cholesky factorization of R + c scale I
    screens the whole stack first: a Hermitian matrix has a Cholesky factor
    exactly when it is positive definite (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so a stack that factors has min eig R >
    -c scale, up to a backward error near 1e-15 scale, on every row.  Only a
    stack that fails to factor runs eigvalsh, so every message and defect
    is the same as without the screen.  c must stay below 0.5e-8, or the
    screen would pass rows the check rejects; c = 0.25e-8 keeps it 0.25e-8
    scale from that bound and from pure states, whose min eig R is 0 up to
    rounding.  Both routines read R's lower triangle.
    """
    finite = np.isfinite(mean).all(axis=1)
    for f in (normal, anomalous):
        finite &= np.isfinite(f).all(axis=(1, 2))
    if not finite.all():
        # eigvalsh does not converge on non-finite rows, which fail the first check anyway
        normal, anomalous = (np.where(finite[:, None, None], f, 0.0) for f in (normal, anomalous))
    scale = np.maximum(1.0, np.maximum(np.abs(normal).max(axis=(1, 2)), np.abs(anomalous).max(axis=(1, 2))))
    # R is Hermitian exactly when N is Hermitian and A symmetric
    tol = 1e-8 * scale[:, None, None]
    not_hermitian = (np.abs(normal - normal.conj().swapaxes(1, 2)) > tol).any(axis=(1, 2))
    not_symmetric = (np.abs(anomalous - anomalous.swapaxes(1, 2)) > tol).any(axis=(1, 2))
    gram = np.empty((len(normal), 6, 6), dtype=complex)
    gram[:, :3, :3] = normal.swapaxes(1, 2) + np.eye(3)
    gram[:, :3, 3:] = anomalous
    gram[:, 3:, :3] = anomalous.conj()
    gram[:, 3:, 3:] = normal
    shifted = gram.copy()
    shifted[:, range(6), range(6)] += _SCREEN_SHIFT * scale[:, None]
    try:
        np.linalg.cholesky(shifted)
        defect = np.zeros(len(gram))
    except np.linalg.LinAlgError:
        defect = 2.0 * np.linalg.eigvalsh(gram)[:, 0]
    checks = (
        ("moments must be finite", ~finite),
        ("normal moment block must be Hermitian", not_hermitian),
        ("anomalous moment block must be symmetric", not_symmetric),
        ("normal moments have a negative occupation",
         normal.real.diagonal(axis1=1, axis2=2).min(axis=1) < -1e-10 * scale),
        ("covariance violates the uncertainty relation", defect < -1e-8 * scale),
    )
    bad = np.array([fails for _, fails in checks])
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=0)))
    kind = int(np.argmax(bad[:, row]))
    message = checks[kind][0]
    if kind == len(checks) - 1:
        return row, PhysicalityError(f"{message} (defect {defect[row]:.3e})")
    return row, GaussianError(message)


@dataclass(frozen=True, eq=False)
class ThreeModeGaussianState:
    """Gaussian state of (a1, bm, a2): means plus central N and A blocks."""

    mean: np.ndarray
    normal: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=complex).reshape(3)
        normal = np.asarray(self.normal, dtype=complex).reshape(3, 3)
        anomalous = np.asarray(self.anomalous, dtype=complex).reshape(3, 3)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anomalous", anomalous)
        fault = _first_fault(mean[None], normal[None], anomalous[None])
        if fault is not None:
            raise fault[1]

    @classmethod
    def _prechecked(cls, mean, normal, anomalous) -> "ThreeModeGaussianState":
        """State from complex (3,) and (3, 3) moments that _first_fault has passed."""
        state = object.__new__(cls)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "normal", normal)
        object.__setattr__(state, "anomalous", anomalous)
        return state


class _StateView(Sequence):
    """Read-only sequence of a Trajectory's states, each built on access from its stacks."""

    def __init__(self, traj: "Trajectory") -> None:
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, index):
        picked = range(len(self))[index]  # negative indices, bounds and slices as for a list
        if isinstance(picked, range):
            return [self[i] for i in picked]
        traj = self._traj
        return ThreeModeGaussianState._prechecked(traj.mean[picked], traj.normal[picked], traj.anomalous[picked])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled moment trajectory including both endpoints, held as stacks.

    times is (S,), mean (S, 3), and normal and anomalous (S, 3, 3); states
    is a read-only sequence of ThreeModeGaussianState views of those rows.
    """

    times: np.ndarray
    mean: np.ndarray
    normal: np.ndarray
    anomalous: np.ndarray

    @property
    def states(self) -> Sequence[ThreeModeGaussianState]:
        return _StateView(self)

    @property
    def final(self) -> ThreeModeGaussianState:
        return self.states[-1]


def make_squeezed_coherent(alpha: complex, r: float, phi: float = 0.0) -> SingleModeGaussian:
    """Displaced squeezed vacuum D(alpha) S(r e^{2i phi}) |0>.

    Central moments: n_ex = sinh^2 r, m_an = -e^{2i phi} sinh r cosh r
    (sign fixed against the Fock-basis construction).  r = 0 gives the
    coherent state |alpha>; r < 0, or r past 355.2 where cosh 2r overflows, raises.
    """
    return SingleModeGaussian(
        mean=complex(alpha),
        n_ex=_squeezed_occupation(r),
        m_an=-np.exp(2j * phi) * math.sinh(r) * math.cosh(r),
    )


def _squeezed_occupation(r: float) -> float:
    """sinh^2 r; GaussianError, as config validation reports it, for a negative r or one too large.

    r is too large where sinh^2 r, or the scale 2 sinh^2 r + 1 = cosh 2r of
    the uncertainty check, is not a finite float: past r = 355.2.
    """
    if r < 0:
        raise GaussianError("squeezing r must be non-negative")
    try:
        occupation = math.sinh(r) ** 2
    except OverflowError:
        raise GaussianError(f"squeezing r = {r} is out of range: sinh^2 r is not a finite float") from None
    if not math.isfinite(2.0 * occupation + 1.0):
        raise GaussianError(f"squeezing r = {r} is out of range: cosh 2r = 2 sinh^2 r + 1 is not a finite float")
    return occupation


def embed_initial(
    state1: SingleModeGaussian, mech_occupation: float
) -> ThreeModeGaussianState:
    """Input state in a1, thermal mechanical mode, vacuum in a2, no correlations."""
    if mech_occupation < 0:
        raise GaussianError("mech_occupation must be non-negative")
    mean = np.array([state1.mean, 0.0, 0.0], dtype=complex)
    normal = np.zeros((3, 3), dtype=complex)
    anomalous = np.zeros((3, 3), dtype=complex)
    normal[0, 0] = state1.n_ex
    normal[1, 1] = mech_occupation
    anomalous[0, 0] = state1.m_an
    return ThreeModeGaussianState(mean=mean, normal=normal, anomalous=anomalous)


def _views(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, 3, 1) mean, (P, 3, 3) N and (P, 3, 3) A views of a (P, 21) [mean | N | A] buffer."""
    rows = len(buf)
    return buf[:, :3, None], buf[:, 3:12].reshape(rows, 3, 3), buf[:, 12:].reshape(rows, 3, 3)


def _stage_derivative(g, h, diffusion, src, dst, work) -> None:
    """d mean = G mean, dN = H N + (H N)^+ + D, dA = G A + (G A)^T from src into dst views.

    With G = -i M and H = i M*, these are bitwise -i M mean, i M* N - i N M + D
    and -i (M A + A M) when N is exactly Hermitian and A exactly symmetric.
    work is two (P, 3, 3) scratch stacks.
    """
    (x, n, a), (dx, dn, da), (p, q) = src, dst, work
    np.matmul(g, x, out=dx)
    np.conjugate(np.matmul(h, n, out=p), out=q)
    np.add(np.add(p, q.swapaxes(1, 2), out=dn), diffusion, out=dn)
    np.add(np.matmul(g, a, out=p), p.swapaxes(1, 2), out=da)


def _diffusion(params_seq) -> np.ndarray:
    diffusion = np.zeros((len(params_seq), 3, 3), dtype=complex)
    diffusion[:, 1, 1] = [p.gamma_m * p.n_th for p in params_seq]
    return diffusion


def _peak_coupling(schedule: CouplingSchedule, t_final: float) -> float:
    # each |g_i| of a piecewise-linear schedule peaks at a kink or an end
    grid = np.append(schedule.probe_times(t_final, 255), [0.0, t_final])
    return float(np.abs(schedule.values(grid)).max())


def _step_count(params: SystemParams, g_max: float, t_final: float) -> int:
    rate = max(params.kappa1, params.kappa2, params.gamma_m, g_max)
    h = min(t_final / 2000.0, 0.01)
    if rate > 0:
        # keeps the RK4 defect (rate*h)^4 below the 1e-8 physicality
        # tolerance for pure states on long runs
        h = min(h, 0.01 / rate)
    return max(1, math.ceil(t_final / h))


def _rk4_samples(mean, normal, anomalous, params_seq, schedule, t_final, n_steps, n_samples):
    """Fixed-step RK4 on (P, 3) means and (P, 3, 3) N and A stacks.

    Yields (t, mean, N, A) at every recorded sample time, t_final last;
    yielded arrays are never modified afterwards.  N and A are symmetrized
    once on load, and the stage products keep them exactly Hermitian and
    symmetric.  Stages write into preallocated (P, 21) buffers, and G = -i M,
    H = i M* are built for _CHUNK_DRIFTS (step, stage, row) triples at once,
    from one schedule call per chunk.
    """
    rows = len(params_seq)
    diffusion = _diffusion(params_seq)
    h = t_final / n_steps
    # 0-d complex factors give the products of the float ones at less call overhead
    half, step, two, sixth = (np.array(c + 0j) for c in (0.5 * h, h, 2.0, h / 6.0))
    record_every = max(1, n_steps // max(1, n_samples - 1))
    chunk = max(1, _CHUNK_DRIFTS // (3 * rows))
    state, new, stage, acc, deriv = np.empty((5, rows, 21), dtype=complex)
    normal = 0.5 * (normal + normal.conj().swapaxes(1, 2))
    anomalous = 0.5 * (anomalous + anomalous.swapaxes(1, 2))
    state[:] = np.concatenate([mean, normal.reshape(rows, 9), anomalous.reshape(rows, 9)], axis=1)
    state_v, new_v, stage_v, acc_v, deriv_v = map(_views, (state, new, stage, acc, deriv))
    work = np.empty((2, rows, 3, 3), dtype=complex)
    add, mul = np.add, np.multiply
    for k0 in range(0, n_steps, chunk):
        steps = range(k0, min(k0 + chunk, n_steps))
        # stage times k h + (0, h/2, h) may overshoot the schedule end by rounding; clamp
        ts = np.clip(np.array(steps)[:, None] * h + [0.0, 0.5 * h, h], 0.0, schedule.duration)
        g1, g2 = np.expand_dims(schedule.values(ts), -1)
        m = drift_stack([par.damping_diagonal for par in params_seq], g1, g2)  # (steps, 3, P, 3, 3)
        for k, g, hc in zip(steps, -1j * m, 1j * m.conj()):  # G and H at k h + (0, h/2, h)
            _stage_derivative(g[0], hc[0], diffusion, state_v, acc_v, work)  # k1, summed in acc
            add(state, mul(half, acc, out=stage), out=stage)
            for c in (half, step):  # k2 and k3, at the half step
                _stage_derivative(g[1], hc[1], diffusion, stage_v, deriv_v, work)
                add(state, mul(c, deriv, out=stage), out=stage)
                add(acc, mul(two, deriv, out=deriv), out=acc)
            _stage_derivative(g[2], hc[2], diffusion, stage_v, deriv_v, work)
            add(state, mul(sixth, add(acc, deriv, out=acc), out=acc), out=new)
            state, new, state_v, new_v = new, state, new_v, state_v
            if (k + 1) % record_every == 0 or k + 1 == n_steps:
                out = state.copy()
                t = t_final if k + 1 == n_steps else (k + 1) * h
                yield t, out[:, :3], out[:, 3:12].reshape(rows, 3, 3), out[:, 12:].reshape(rows, 3, 3)


_CHUNK_DRIFTS = 1024
_CHUNK_STATES = 256
_CHUNK_STEPS = 1024
# elementwise factors taking mean, N and A into the gauge of _magnus_samples; their conjugates take them back
_GAUGED = (_GAUGE, _GAUGE.conj()[:, None] * _GAUGE, _GAUGE[:, None] * _GAUGE)


def _advance(e, q, mean, normal, anomalous):
    """Gauged moments moved by the real affine maps (E, Q): E mean, E A E^T and E N E^T + Q.

    Step axis last: e, q, normal and anomalous are (3, 3, S) and mean (3, S),
    where an S of 1 broadcasts, so one state moves by S maps at once.  The
    returned N is exactly Hermitian and A exactly symmetric.
    """
    et = e.swapaxes(0, 1)
    n = _mul(_mul(e, normal), et) + q
    a = _mul(_mul(e, anomalous), et)
    return _mul(e, mean[:, None])[:, 0], 0.5 * (n + n.conj().swapaxes(0, 1)), 0.5 * (a + a.swapaxes(0, 1))


def _magnus_samples(mean, normal, anomalous, params, schedule, t_final, n_steps, n_samples):
    """Magnus-6 Van Loan steps on one (3,) mean and (3, 3) N and A, on the RK4 kernel's grid.

    Yields (times, mean, N, A) stacks of the recorded samples once per chunk
    of _CHUNK_STEPS steps, t_final last; yielded arrays are never modified
    afterwards.  The steps run in real arithmetic, in the gauge v = T v' of
    model._gauged_drift: the maps mean' = T*^-1 mean, N' = T^-1 N T^-H and
    A' = T*^-1 A T*^-T on load, and back on yield, multiply entries by units.
    A step's propagator Phi = exp(Omega) of the Van Loan generator
    [[B', D], [0, -B'^T]], with B' = T^-1 (i M*) T and D the diffusion (Van
    Loan, IEEE TAC 23, 1978), gives the step's real affine map E = Phi11,
    Q = Phi12 Phi11^T (see _advance).  Each chunk makes one schedule call at
    every step's Gauss-Legendre nodes and one model._magnus6_block_exp call
    on the blocks X = B', Y = D and Z = -B'^T, step axis last.  Its maps
    compose by an inclusive doubling scan (Hillis & Steele, CACM 29, 1986):
    for d = 1, 2, 4, ... < S, every step k >= d becomes (E_k E_{k-d},
    E_k Q_{k-d} E_k^T + Q_k), pair k - d followed by pair k.  Step k then
    holds the map from the chunk's start, so one _advance of the start
    state gives every sample and another the next chunk's start.  Composing
    pairs, not the raw 6x6 products, keeps the scan bounded: their Phi22
    overflows past kappa T ~ 1400.  The scan, the state and the samples stay
    step-last, (3, 3, S), and are transposed to (S, 3, 3) stacks on yield.
    N and A are symmetrized on load and at every sample.
    """
    h = t_final / n_steps
    record_every = max(1, n_steps // max(1, n_samples - 1))
    diffusion = _diffusion([params])[0].real[..., None]
    mean = (_GAUGED[0] * mean)[:, None]
    normal = (_GAUGED[1] * (0.5 * (normal + normal.conj().T)))[..., None]
    anomalous = (_GAUGED[2] * (0.5 * (anomalous + anomalous.T)))[..., None]
    for k0 in range(0, n_steps, _CHUNK_STEPS):
        ends = np.arange(k0 + 1, min(k0 + _CHUNK_STEPS, n_steps) + 1)
        # the last nodes may overshoot the schedule end by rounding; clamp
        ts = np.clip((ends - 1.0 + _GL3_NODES[:, None]) * h, 0.0, schedule.duration)
        r = _gauged_drift(drift_stack(params.damping_diagonal, *schedule.values(ts)))  # (node, step, 3, 3)
        b = np.ascontiguousarray(r.transpose(0, 3, 2, 1))  # B' = R^T, (node, 3, 3, step)
        minus_bt = np.ascontiguousarray(-r.transpose(0, 2, 3, 1))
        e, e12, _ = _magnus6_block_exp(b, diffusion, minus_bt, h)
        q = _mul(e12, e.swapaxes(0, 1))
        d = 1
        while d < len(ends):
            ek = e[..., d:]
            q[..., d:] += _mul(_mul(ek, q[..., :-d]), ek.swapaxes(0, 1))
            e[..., d:] = _mul(ek, e[..., :-d])
            d *= 2
        recorded = (ends % record_every == 0) | (ends == n_steps)
        samples = _advance(e[..., recorded], q[..., recorded], mean, normal, anomalous)
        mean, normal, anomalous = _advance(e[..., -1:], q[..., -1:], mean, normal, anomalous)
        times = np.where(ends[recorded] == n_steps, t_final, ends[recorded] * h)
        yield (times, *(np.multiply(np.moveaxis(f, -1, 0), g.conj(), order="C") for f, g in zip(samples, _GAUGED)))


def _check(times, mean, normal, anomalous, rows=None) -> None:
    """Raise the first fault of stacked states, naming its sample time and, with rows, its input row.

    States are ordered sample by sample, with len(rows) states per sample.
    """
    fault = _first_fault(mean, normal, anomalous)
    if fault is not None:
        index, exc = fault
        width = 1 if rows is None else len(rows)
        where = f"t = {times[index // width]:.6g}"
        if rows is not None:
            where += f", row {rows[index % width]}"
        raise type(exc)(f"physicality violation at {where}: {exc}")


def _checked(samples, rows: list[int]):
    """Pass the RK4 kernel's samples on once they are validated.

    One _first_fault call validates a chunk of about _CHUNK_STATES states
    (samples times rows).  An error names the time of the first faulty
    sample and its input row.
    """
    samples = iter(samples)
    while chunk := list(islice(samples, max(1, _CHUNK_STATES // len(rows)))):
        stacks = (np.concatenate([sample[f] for sample in chunk]) for f in (1, 2, 3))
        _check([sample[0] for sample in chunk], *stacks, rows)
        yield from chunk


def integrate(
    state0: ThreeModeGaussianState,
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    n_samples: int = 201,
) -> Trajectory:
    """Integrate the moment equations by Magnus-6 Van Loan steps (see _magnus_samples).

    Each chunk of steps makes one call of model._magnus6_block_exp, the
    block-triangular Magnus kernel that the time-domain pulse path shares,
    on real generators: the steps run in the gauge where the drift is real,
    and the samples equal, bit for bit, those of the same steps in the
    complex frame, up to the sign of zero entries.

    The grid is fixed: h = T / n for the least n with h <= min(T/2000, 0.01,
    0.01/max(kappa1, kappa2, gamma_m, g)), g the peak |g_i| at t = 0, T
    and schedule.probe_times(T, 255), and every max(1, n // (n_samples -
    1))-th step and the last are recorded.  The input state is validated,
    then N and A are symmetrized once on load: the exact blocks
    embed_initial builds stay as they are, and an input Hermitian only
    within the validator's 1e-8 loses its anti-Hermitian residue.  Every
    recorded sample is validated as a state, one stacked validator call per
    chunk of steps, which a batched Cholesky screen settles unless the chunk
    holds a state near or past the uncertainty bound (see _first_fault); a
    failure names the time of the first faulty sample.  The samples are
    returned as stacks, concatenated once: Trajectory.states builds each
    ThreeModeGaussianState only when it is read.  integrate_batch still runs
    the RK4 kernel, so its final states differ from these by the RK4's
    truncation error.
    """
    if t_final <= 0:
        raise GaussianError("t_final must be positive")
    _check([0.0], state0.mean[None], state0.normal[None], state0.anomalous[None])
    n_steps = _step_count(params, _peak_coupling(schedule, t_final), t_final)
    chunks = [(np.zeros(1), state0.mean[None], state0.normal[None], state0.anomalous[None])]
    samples = _magnus_samples(
        state0.mean, state0.normal, state0.anomalous, params, schedule, t_final, n_steps, n_samples
    )
    for chunk in samples:
        _check(*chunk)
        chunks.append(chunk)
    return Trajectory(*(np.concatenate(field) for field in zip(*chunks)))


def integrate_batch(
    states0: list[ThreeModeGaussianState],
    params_seq: list[SystemParams],
    schedule: CouplingSchedule,
    t_final: float,
) -> list[ThreeModeGaussianState]:
    """Final states of the moment equations from states0[i] under params_seq[i], on integrate's grid.

    The fixed-step RK4 kernel runs here, not integrate's Magnus-6 steps:
    those move delta_F of the Fig. 1 sweeps by about 1e-11 relative, past
    the 1e-12 tolerance of their golden record.  Rows sharing a step count
    advance as one stack, so every final state is bitwise the row's result
    on its own.  The same physicality tests run at every recorded sample,
    stacked over samples and rows.
    """
    if t_final <= 0:
        raise GaussianError("t_final must be positive")
    if len(states0) != len(params_seq):
        raise GaussianError("need one SystemParams per initial state")
    g_max = _peak_coupling(schedule, t_final)
    groups: dict[int, list[int]] = {}
    for i, params in enumerate(params_seq):
        groups.setdefault(_step_count(params, g_max, t_final), []).append(i)
    finals: list = [None] * len(states0)
    for n_steps, rows in groups.items():
        stacks = [
            np.array([getattr(states0[i], f) for i in rows]) for f in ("mean", "normal", "anomalous")
        ]
        samples = _rk4_samples(
            *stacks, [params_seq[i] for i in rows], schedule, t_final, n_steps, 201
        )
        for _, mean, normal, anomalous in _checked(samples, rows):
            pass  # every sample is validated; the last one holds the final states
        for j, i in enumerate(rows):
            finals[i] = ThreeModeGaussianState._prechecked(mean[j], normal[j], anomalous[j])
    return finals


def reduce_to_mode(state: ThreeModeGaussianState, index: int) -> SingleModeGaussian:
    """Single-mode reduction; index is 1-based (1 = a1, 2 = bm, 3 = a2)."""
    if index not in (1, 2, 3):
        raise GaussianError(f"mode index must be 1, 2 or 3, got {index}")
    i = index - 1
    return SingleModeGaussian(
        mean=complex(state.mean[i]),
        n_ex=max(float(state.normal[i, i].real), 0.0),
        m_an=complex(state.anomalous[i, i]),
    )


def gaussian_fidelity(s1: SingleModeGaussian, s2: SingleModeGaussian) -> float:
    """Single-mode Uhlmann fidelity from the 2x2 covariances.

    F = 2 exp(-delta^T (sigma1+sigma2)^-1 delta / 2) / (sqrt(Delta+Lambda) - sqrt(Lambda))
    with Delta = det(sigma1+sigma2), Lambda = (det sigma1 - 1)(det sigma2 - 1);
    validated against the Fock-basis oracle.
    """
    sig1, sig2 = s1.covariance, s2.covariance
    total = sig1 + sig2
    det_total = float(np.linalg.det(total))
    if det_total < 1e-300:
        raise GaussianError("sigma1 + sigma2 is numerically singular")
    lam = (float(np.linalg.det(sig1)) - 1.0) * (float(np.linalg.det(sig2)) - 1.0)
    lam = max(lam, 0.0)
    delta = s1.quadrature_mean - s2.quadrature_mean
    expo = -0.5 * float(delta @ np.linalg.solve(total, delta))
    fid = 2.0 * math.exp(expo) / (math.sqrt(det_total + lam) - math.sqrt(lam))
    return min(max(fid, 0.0), 1.0)


def _squeezed_thermal_split(s: SingleModeGaussian) -> tuple[float, float, complex]:
    """Decompose central moments into (nbar, r, squeeze phase factor e^{2i phi})."""
    nu_sq = (2.0 * s.n_ex + 1.0) ** 2 - 4.0 * abs(s.m_an) ** 2
    nu = math.sqrt(max(nu_sq, 1.0))
    nbar = 0.5 * (nu - 1.0)
    r = 0.5 * math.asinh(2.0 * abs(s.m_an) / nu)
    phase = -s.m_an / abs(s.m_an) if abs(s.m_an) > 0 else complex(1.0)
    return nbar, r, phase


def _fock_bases(dim: int):
    """eigh of the real symmetric X = a + a^+ and Y = a^2 + a^+2 on the first dim number states."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    square = lower @ lower
    return np.linalg.eigh(lower + lower.T), np.linalg.eigh(square + square.T)


def _rotated(rho: np.ndarray, basis, angle: float, theta: float) -> np.ndarray:
    """U rho U^+ for U = P exp(i angle G) P^+, basis = eigh(G) of a real G, P = diag(e^{i k theta}); real products."""
    w, v = basis
    p = np.exp(1j * theta * np.arange(len(w)))
    rho = rho * np.outer(p.conj(), p)
    for a, c in ((v.T, np.exp(1j * angle * w)), (v, p)):
        rho = (a @ rho.real @ a.T + 1j * (a @ rho.imag @ a.T)) * np.outer(c, c.conj())
    return rho


def _fock_density(s: SingleModeGaussian, cutoff: int, bases) -> tuple[np.ndarray, float]:
    """Truncated density matrix in the number basis plus its trace deficit.

    Built as D(alpha) S(eps) rho_th S^+ D^+ in the padded space of bases =
    _fock_bases(dim); the generators are anti-Hermitian so the truncated
    operators are exactly unitary and all truncation loss shows up in the
    returned block's trace.  P a P^+ = e^{-i theta} a for P = diag(e^{i k theta}),
    so D(alpha) = P exp(-i |alpha| X) P^+ at theta = arg alpha + pi/2 and
    S(eps) = P exp(i r Y / 2) P^+ at theta = arg eps / 2 + pi/4.
    """
    nbar, r, phase = _squeezed_thermal_split(s)
    x_basis, y_basis = bases
    dim = len(x_basis[0])
    if nbar > 0:
        ks = np.arange(dim)
        diag = np.exp(ks * math.log(nbar / (nbar + 1.0))) / (nbar + 1.0)
    else:
        diag = np.zeros(dim)
        diag[0] = 1.0
    rho = np.diag(diag).astype(complex)
    if r > 0:
        rho = _rotated(rho, y_basis, 0.5 * r, 0.5 * cmath.phase(phase) + 0.25 * math.pi)
    if s.mean != 0:
        rho = _rotated(rho, x_basis, -abs(s.mean), cmath.phase(s.mean) + 0.5 * math.pi)
    block = rho[:cutoff, :cutoff]
    deficit = abs(1.0 - float(np.trace(block).real))
    return block, deficit


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _rule_cutoff(s: SingleModeGaussian) -> int:
    _, r, _ = _squeezed_thermal_split(s)
    a = abs(s.mean)
    return math.ceil(4.0 * (a * a + 10.0 * a + 20.0 * math.sinh(r) ** 2 + 10.0 * s.n_ex))


def fock_oracle_fidelity(
    s1: SingleModeGaussian, s2: SingleModeGaussian, cutoff: int | None = None
) -> float:
    """Uhlmann fidelity by explicit truncated Fock-basis density matrices.

    Independent of the covariance formula; used to certify it.  The cutoff
    starts from a size heuristic (or the given value) and doubles until both
    truncated matrices have trace deficit below 1e-10; beyond 4096 the
    evaluation is abandoned.  Each cutoff tried computes the real
    eigenbases of X = a + a^+ and Y = a^2 + a^+2 once, for both states
    (see _fock_density); nothing is kept from one call to the next.
    """
    n = cutoff if cutoff is not None else max(16, _rule_cutoff(s1), _rule_cutoff(s2))
    while True:
        if n > 4096:
            raise GaussianError("Fock cutoff 4096 insufficient for trace deficit 1e-10")
        bases = _fock_bases(n + max(16, n // 2))
        rho1, d1 = _fock_density(s1, n, bases)
        rho2, d2 = _fock_density(s2, n, bases)
        if d1 < 1e-10 and d2 < 1e-10:
            break
        n *= 2
    root = _psd_sqrt(rho1)
    inner = _psd_sqrt(root @ rho2 @ root)
    fid = float(np.trace(inner).real) ** 2
    return min(max(fid, 0.0), 1.0)

