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

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .csvio import build_csv
from .model import CouplingSchedule, SystemParams, drift_stack

__all__ = [
    "GaussianError",
    "PhysicalityError",
    "SingleModeGaussian",
    "ThreeModeGaussianState",
    "MomentDerivative",
    "Trajectory",
    "make_squeezed_coherent",
    "embed_initial",
    "moment_rhs",
    "integrate",
    "integrate_batch",
    "reduce_to_mode",
    "quadrature_covariance",
    "gaussian_fidelity",
    "fock_oracle_fidelity",
    "trajectory_to_csv",
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
        if self.n_ex < 0:
            raise GaussianError(f"n_ex must be non-negative, got {self.n_ex}")
        if self.n_ex * (self.n_ex + 1.0) < abs(self.m_an) ** 2 - 1e-10:
            raise PhysicalityError(
                f"unphysical moments: n(n+1) = {self.n_ex * (self.n_ex + 1):.6g} "
                f"< |m|^2 = {abs(self.m_an) ** 2:.6g}"
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


def quadrature_covariance(normal: np.ndarray, anomalous: np.ndarray) -> np.ndarray:
    """6x6 symmetrized quadrature covariance from the (N, A) blocks."""
    sigma = np.empty((6, 6))
    for j in range(3):
        for k in range(3):
            njk, ajk = normal[j, k], anomalous[j, k]
            delta = 1.0 if j == k else 0.0
            sigma[2 * j, 2 * k] = 2.0 * ajk.real + 2.0 * njk.real + delta
            sigma[2 * j + 1, 2 * k + 1] = -2.0 * ajk.real + 2.0 * njk.real + delta
            sigma[2 * j, 2 * k + 1] = 2.0 * ajk.imag + 2.0 * njk.imag
            sigma[2 * j + 1, 2 * k] = 2.0 * ajk.imag - 2.0 * njk.imag
    return sigma


def _first_fault(
    mean: np.ndarray, normal: np.ndarray, anomalous: np.ndarray
) -> tuple[int, GaussianError] | None:
    """First row of (P, 3) mean and (P, 3, 3) moment stacks that is no Gaussian state, with its error.

    The first faulty row reports the first of the checks below that it fails.
    sigma + i Omega = 2 U R U^+ for a unitary U, with R = [[1 + N^T, A], [A*, N]]
    the Gram matrix of the fluctuations (da, da^+); the defect is 2 min eig R.
    """
    gram = np.empty((len(normal), 6, 6), dtype=complex)
    gram[:, :3, :3] = normal.swapaxes(1, 2) + np.eye(3)
    gram[:, :3, 3:] = anomalous
    gram[:, 3:, :3] = anomalous.conj()
    gram[:, 3:, 3:] = normal
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(gram).all(axis=(1, 2))
    # eigvalsh does not converge on non-finite rows, which fail the first check anyway
    gram[~finite] = 0.0
    scale = np.maximum(1.0, np.abs(gram[:, :, 3:]).max(axis=(1, 2)))
    # R is Hermitian exactly when N is Hermitian and A symmetric
    asym = np.abs(gram - gram.conj().swapaxes(1, 2)) > 1e-8 * scale[:, None, None]
    defect = 2.0 * np.linalg.eigvalsh(gram)[:, 0]
    checks = (
        ("moments must be finite", ~finite),
        ("normal moment block must be Hermitian", asym[:, 3:, 3:].any(axis=(1, 2))),
        ("anomalous moment block must be symmetric", asym[:, :3, 3:].any(axis=(1, 2))),
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


class MomentDerivative(NamedTuple):
    mean: np.ndarray
    normal: np.ndarray
    anomalous: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled moment trajectory including both endpoints."""

    times: np.ndarray
    states: list[ThreeModeGaussianState]

    @property
    def final(self) -> ThreeModeGaussianState:
        return self.states[-1]


def make_squeezed_coherent(alpha: complex, r: float, phi: float = 0.0) -> SingleModeGaussian:
    """Displaced squeezed vacuum D(alpha) S(r e^{2i phi}) |0>.

    Central moments: n_ex = sinh^2 r, m_an = -e^{2i phi} sinh r cosh r
    (sign fixed against the Fock-basis construction).  r = 0 gives the
    coherent state |alpha>.
    """
    if r < 0:
        raise GaussianError("squeezing parameter r must be non-negative")
    return SingleModeGaussian(
        mean=complex(alpha),
        n_ex=math.sinh(r) ** 2,
        m_an=-np.exp(2j * phi) * math.sinh(r) * math.cosh(r),
    )


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


def moment_rhs(
    t: float,
    state: ThreeModeGaussianState,
    params: SystemParams,
    schedule: CouplingSchedule,
) -> MomentDerivative:
    """Time derivative of (mean, N, A) under the Langevin moment equations."""
    m = drift_stack(params.damping_diagonal, *schedule.values(min(max(t, 0.0), schedule.duration)))
    src = np.concatenate([state.mean, state.normal.ravel(), state.anomalous.ravel()])[None]
    out, work = np.empty_like(src), np.empty((2, 1, 3, 3), dtype=complex)
    _stage_derivative(-1j * m, 1j * m.conj(), _diffusion([params]), _views(src), _views(out), work)
    return MomentDerivative(out[0, :3], out[0, 3:12].reshape(3, 3), out[0, 12:].reshape(3, 3))


def _peak_coupling(schedule: CouplingSchedule, t_final: float) -> float:
    return float(np.abs(schedule.values(t_final * np.arange(257) / 256.0)).max())


def _step_count(
    params: SystemParams, g_max: float, t_final: float, max_step: float | None = None
) -> int:
    rate = max(params.kappa1, params.kappa2, params.gamma_m, g_max)
    h = min(t_final / 2000.0, 0.01)
    if rate > 0:
        # keeps the RK4 defect (rate*h)^4 below the 1e-8 physicality
        # tolerance for pure states on long runs
        h = min(h, 0.01 / rate)
    if max_step is not None:
        h = min(h, max_step)
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


def _checked(samples, rows: list[int] | None = None):
    """Pass the RK4 kernel's samples on once they are validated.

    One _first_fault call validates a chunk of about _CHUNK_STATES states
    (samples times rows).  An error names the time of the first faulty
    sample and, when rows are given, its input row.
    """
    width = 1 if rows is None else len(rows)
    samples = iter(samples)
    while chunk := list(islice(samples, max(1, _CHUNK_STATES // width))):
        fault = _first_fault(*(np.concatenate([sample[f] for sample in chunk]) for f in (1, 2, 3)))
        if fault is not None:
            index, exc = fault
            where = f"t = {chunk[index // width][0]:.6g}"
            if rows is not None:
                where += f", row {rows[index % width]}"
            raise type(exc)(f"physicality violation at {where}: {exc}")
        yield from chunk


def integrate(
    state0: ThreeModeGaussianState,
    params: SystemParams,
    schedule: CouplingSchedule,
    t_final: float,
    max_step: float | None = None,
    n_samples: int = 201,
) -> Trajectory:
    """Fixed-step RK4 integration of the moment equations.

    The step is h = min(T/2000, 0.01, 0.01/max(kappa1, kappa2, gamma_m, g)),
    with g the peak coupling on 257 grid times, optionally capped by
    max_step; fixed stepping keeps trajectories reproducible.  N and A are
    symmetrized once on load: the exact blocks embed_initial builds stay
    as they are, and an input Hermitian only within the validator's 1e-8
    loses its anti-Hermitian residue.  Stages are then stacked products (see
    _stage_derivative), bitwise the plain formulas, and every recorded
    sample is validated as a state, about 256 samples per stacked validator
    call; a failure names the time of the first faulty sample.
    """
    if t_final <= 0:
        raise GaussianError("t_final must be positive")
    n_steps = _step_count(params, _peak_coupling(schedule, t_final), t_final, max_step)
    times = [0.0]
    states = [state0]
    samples = _rk4_samples(
        state0.mean[None], state0.normal[None], state0.anomalous[None], [params],
        schedule, t_final, n_steps, n_samples,
    )
    for t, mean, normal, anomalous in _checked(samples):
        states.append(ThreeModeGaussianState._prechecked(mean[0], normal[0], anomalous[0]))
        times.append(t)
    return Trajectory(times=np.array(times), states=states)


def integrate_batch(
    states0: list[ThreeModeGaussianState],
    params_seq: list[SystemParams],
    schedule: CouplingSchedule,
    t_final: float,
) -> list[ThreeModeGaussianState]:
    """Final states of integrate(states0[i], params_seq[i], schedule, t_final).

    Rows sharing a step count advance as one stack, so every final state is
    bitwise the serial result.
    The same physicality tests run at every recorded sample, stacked over
    samples and rows.
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


def _expm_antihermitian(g: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G from one eigh of the Hermitian -iG: V e^{i lam} V^+."""
    lam, v = np.linalg.eigh(-1j * g)
    return (v * np.exp(1j * lam)) @ v.conj().T


def _fock_density(s: SingleModeGaussian, cutoff: int) -> tuple[np.ndarray, float]:
    """Truncated density matrix in the number basis plus its trace deficit.

    Built as D(alpha) S(eps) rho_th S^+ D^+ in a padded working space; the
    generators are anti-Hermitian so the truncated operators are exactly
    unitary and all truncation loss shows up in the returned block's trace.
    """
    nbar, r, phase = _squeezed_thermal_split(s)
    dim = cutoff + max(16, cutoff // 2)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    raise_ = lower.conj().T
    if nbar > 0:
        ks = np.arange(dim)
        diag = np.exp(ks * math.log(nbar / (nbar + 1.0))) / (nbar + 1.0)
    else:
        diag = np.zeros(dim)
        diag[0] = 1.0
    rho = np.diag(diag).astype(complex)
    if r > 0:
        eps = r * phase
        squeeze = _expm_antihermitian(
            (np.conj(eps) * (lower @ lower) - eps * (raise_ @ raise_)) / 2.0
        )
        rho = squeeze @ rho @ squeeze.conj().T
    if s.mean != 0:
        disp = _expm_antihermitian(s.mean * raise_ - np.conj(s.mean) * lower)
        rho = disp @ rho @ disp.conj().T
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
    evaluation is abandoned.
    """
    n = cutoff if cutoff is not None else max(16, _rule_cutoff(s1), _rule_cutoff(s2))
    while True:
        if n > 4096:
            raise GaussianError("Fock cutoff 4096 insufficient for trace deficit 1e-10")
        rho1, d1 = _fock_density(s1, n)
        rho2, d2 = _fock_density(s2, n)
        if d1 < 1e-10 and d2 < 1e-10:
            break
        n *= 2
    root = _psd_sqrt(rho1)
    inner = _psd_sqrt(root @ rho2 @ root)
    fid = float(np.trace(inner).real) ** 2
    return min(max(fid, 0.0), 1.0)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: t, Re/Im of all means, N diagonal, Re/Im of the A diagonal."""
    modes = ("a1", "bm", "a2")
    header = ["t"] + [f"{part}_{name}" for name in modes for part in ("re", "im")]
    header += [f"n_{name}" for name in modes]
    header += [f"{part}_m_{name}" for name in modes for part in ("re", "im")]
    mean = np.array([st.mean for st in traj.states])
    normal = np.array([st.normal.diagonal().real for st in traj.states])
    anomalous = np.array([st.anomalous.diagonal() for st in traj.states])
    # complex (S, 3) columns viewed as interleaved (re, im) pairs, the header's order
    table = np.column_stack([traj.times, mean.view(float), normal, anomalous.view(float)])
    return build_csv(header, table)
