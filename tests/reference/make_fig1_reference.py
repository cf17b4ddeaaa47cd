"""Extended-precision reference for the bundled Fig. 1 conversion sweeps.

For every sweep point of fig1b, fig1b_squeezed, fig1c and fig1c_squeezed,
and for the quiet-bath twin (gamma_m = n_th = 0) of every fig1c and
fig1c_squeezed point, this script solves the moment equations

    d<v>/dt = -i M <v>
    dN/dt   =  i M* N - i N M + diag(0, gamma_m n_th, 0)
    dA/dt   = -i (M A + A M)

of the trig ramp g1 = A sin(pi t / 2T), g2 = -A cos(pi t / 2T) at 32
significant digits with mpmath's Taylor ODE solver, then evaluates the
Gaussian Uhlmann fidelity of the input state and the final a2 mode at the
same precision.  A twin with the same inputs as an earlier solve (the
fig1b rows are the fig1c twins) reuses that solve.

It writes fig1_reference.csv next to itself: the inputs of each point,
then F, and for the delta_f configs F_reference and delta_F = |F -
F_reference|, at 17 significant digits.  The header records the mpmath
version and the sha256 of this script.  The tier-1 tests read that file
and never import mpmath; one of them fails when this script or a Fig. 1
config changes without the file being regenerated.

Run offline from the repository root (mpmath comes with the `reference`
extra); its 44 distinct solves take about four minutes:

    PYTHONPATH=src python3 tests/reference/make_fig1_reference.py
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import mpmath
from mpmath import mp

from omtransfer.config import apply_sweep_point, parse_config
from omtransfer.model import TrigSchedule

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE.parent.parent / "scenarios"
CONFIGS = ("fig1b", "fig1b_squeezed", "fig1c", "fig1c_squeezed")
INPUTS = ("kappa1", "kappa2", "gamma_m", "n_th", "alpha_re", "alpha_im", "r", "phi", "mech_occupation",
          "amplitude", "duration")
COLUMNS = ("config", "point", *INPUTS, "F", "F_reference", "delta_F")
DIGITS = 32


def _inputs(cfg) -> tuple[float, ...]:
    p, s = cfg.params, cfg.schedule
    if not isinstance(s, TrigSchedule) or (p.omega_m, p.detuning1, p.detuning2) != (None, None, None):
        raise SystemExit("the reference covers undetuned trig ramps only")
    return (p.kappa1, p.kappa2, p.gamma_m, p.n_th, cfg.alpha.real, cfg.alpha.imag, cfg.r, cfg.phi,
            cfg.mech_occupation, s.amplitude, s.duration)


def _covariance(n, m):
    """Quadrature covariance (vacuum = identity) of the central moments n = <da^+ da>, m = <da da>."""
    return mp.matrix([[1 + 2 * n + 2 * m.real, 2 * m.imag], [2 * m.imag, 1 + 2 * n - 2 * m.real]])


def fidelity(inputs: tuple[float, ...]) -> mpmath.mpf:
    """Uhlmann fidelity of the input state and the a2 mode after the ramp, at DIGITS digits."""
    k1, k2, gm, nth, a_re, a_im, r, phi, n_mech, amp, dur = (mp.mpf(x) for x in inputs)
    alpha = mp.mpc(a_re, a_im)
    n_in, m_in = mp.sinh(r) ** 2, -mp.exp(2j * phi) * mp.sinh(r) * mp.cosh(r)
    rate = mp.pi / (2 * dur)

    def drift(t):
        g1, g2 = amp * mp.sin(rate * t), -amp * mp.cos(rate * t)
        return mp.matrix([[-0.5j * k1, g1, 0], [g1, -0.5j * gm, g2], [0, g2, -0.5j * k2]])

    def unpack(y):
        return mp.matrix(y[:3]), mp.matrix([y[3:6], y[6:9], y[9:12]]), mp.matrix([y[12:15], y[15:18], y[18:]])

    def entries(*blocks):
        return [b[i, j] for b in blocks for i in range(b.rows) for j in range(b.cols)]

    def derivative(t, y):
        m = drift(t)
        mean, normal, anomalous = unpack(y)
        d_normal = 1j * m.conjugate() * normal - 1j * normal * m
        d_normal[1, 1] += gm * nth
        return entries(-1j * m * mean, d_normal, -1j * (m * anomalous + anomalous * m))

    y0 = [mp.mpc(0)] * 21
    y0[0], y0[3 + 0], y0[3 + 4], y0[12 + 0] = alpha, n_in, n_mech, m_in
    mean, normal, anomalous = unpack(mp.odefun(derivative, 0, y0)(dur))
    # F = 2 exp(-delta^T (s1 + s2)^-1 delta / 2) / (sqrt(det(s1 + s2) + L) - sqrt(L)) with
    # L = (det s1 - 1)(det s2 - 1) = 0, as the input D(alpha) S(r) |0> is pure
    total = _covariance(n_in, m_in) + _covariance(normal[2, 2].real, anomalous[2, 2])
    delta = mp.matrix([2 * (alpha.real - mean[2].real), 2 * (alpha.imag - mean[2].imag)])
    expo = -(delta.T * mp.lu_solve(total, delta))[0] / 2
    return 2 * mp.exp(expo) / mp.sqrt(mp.det(total))


def main() -> None:
    mp.dps = DIGITS
    sha = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    solved: dict[tuple[float, ...], mpmath.mpf] = {}
    lines = [f"# mpmath {mpmath.__version__}, {DIGITS} digits, make_fig1_reference.py sha256 {sha}", ",".join(COLUMNS)]
    for name in CONFIGS:
        config = parse_config((SCENARIO_DIR / f"{name}.cfg").read_text(encoding="utf-8"))
        for idx in range(config.n_runs):
            cfg = apply_sweep_point(config, idx)
            points = [_inputs(cfg)]
            if config.delta_f:
                points.append(_inputs(dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, gamma_m=0.0, n_th=0.0))))
            for inputs in points:
                if inputs not in solved:
                    start = time.perf_counter()
                    solved[inputs] = fidelity(inputs)
                    print(f"{name}[{idx}] {mp.nstr(solved[inputs], 20)} in {time.perf_counter() - start:.1f} s", flush=True)
            values = [solved[x] for x in points]
            if config.delta_f:
                values.append(abs(values[0] - values[1]))
            cells = [mp.nstr(v, 17) for v in values] + [""] * (3 - len(values))
            lines.append(",".join([name, str(idx), *map(repr, points[0]), *cells]))
    (HERE / "fig1_reference.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
