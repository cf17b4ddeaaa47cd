"""integrate_batch's step doubling on the Magnus kernel, and its accuracy against the mpmath reference.

integrate_batch runs each row on its own through gaussian._magnus_samples,
doubling the step count S from 200 until the final moments of S and 2S
steps differ by at most 1e-13 of the state scale.  Every batched row must
be byte-equal to its lone run at the accepted S, signed zeros included.
A step that holds a kink of the schedule runs as sub-steps that meet at
the kink, in integrate and integrate_batch alike, and the samples stay on
the grid of whole steps.
The module keeps its name from the fixed-step RK4 kernel that this path
replaced; the tests that held that kernel to a frozen copy of itself now
hold each row to its lone Magnus run.

The accuracy oracle bounds how far the program's F_numeric and delta_F of
the bundled Fig. 1 sweeps are from the extended-precision reference that
tests/reference/make_fig1_reference.py computes with mpmath.
"""

import math

import numpy as np
import pytest

from fig1_reference import CONFIGS, DELTA_F_CONFIGS, column, program_fidelities
from omtransfer import gaussian
from omtransfer.gaussian import GaussianError, embed_initial, make_squeezed_coherent
from omtransfer.model import (
    ConstantCoupling,
    PiecewiseLinearSchedule,
    SystemParams,
    TanhRampSchedule,
    TrigSchedule,
)

# -- lone-run equality ---------------------------------------------------------

COHERENT = embed_initial(make_squeezed_coherent(1.0, 0.0, 0.0), 0.0)
SQUEEZED = embed_initial(make_squeezed_coherent(0.7 - 0.2j, 0.4, 0.3), 1.5)
VACUUM_SQUEEZED = embed_initial(make_squeezed_coherent(0.0, 0.6, 1.1), 0.0)
HOT = dict(gamma_m=2e-4, n_th=100.0)
QUIET = dict(gamma_m=0.0, n_th=0.0)

SCHEDULES = {
    "trig": TrigSchedule(5.0, math.pi / 2),
    "tanh": TanhRampSchedule(g_max=4.0, center=1.0, width=0.3, duration=2.0),
    "constant": ConstantCoupling(1.5, -0.8, duration=2.0),
    "piecewise": PiecewiseLinearSchedule((0.0, 0.7, 1.3, 2.0), (0.0, 3.0, 3.0, 4.0), (-4.0, -3.0, -1.0, 0.0)),
}

STACKED = [
    (COHERENT, SystemParams(kappa1=0.0, kappa2=0.0, **HOT)),
    (SQUEEZED, SystemParams(kappa1=0.3, kappa2=0.1, **HOT)),
    (VACUUM_SQUEEZED, SystemParams(kappa1=1.0, kappa2=0.0, **HOT)),
    (SQUEEZED, SystemParams(kappa1=0.7, kappa2=0.4, gamma_m=0.05, n_th=3.0)),
    (COHERENT, SystemParams(kappa1=0.0, kappa2=0.0, **QUIET)),  # quiet-bath twins
    (SQUEEZED, SystemParams(kappa1=0.3, kappa2=0.1, **QUIET)),
    (VACUUM_SQUEEZED, SystemParams(kappa1=1.0, kappa2=0.0, **QUIET)),
]


def _lone_final(state, params, schedule, n_steps):
    """Final (mean, N, A) of a lone _magnus_samples run of n_steps over the whole schedule."""
    moments = state.mean, state.normal, state.anomalous
    *_, last = gaussian._magnus_samples(*moments, params, schedule, schedule.duration, n_steps, 201)
    return tuple(f[-1] for f in last[1:])


def _batch_with_step_counts(monkeypatch, rows, schedule):
    """integrate_batch's final states of rows, and the step counts S of each row's runs."""
    run, counts = gaussian._final_moments, [[] for _ in rows]

    def spy(state, params, schedule, t_final, n_steps, row):
        counts[row].append(n_steps)
        return run(state, params, schedule, t_final, n_steps, row)

    monkeypatch.setattr(gaussian, "_final_moments", spy)
    finals = gaussian.integrate_batch([st for st, _ in rows], [p for _, p in rows], schedule, schedule.duration)
    monkeypatch.undo()
    return finals, counts


def _assert_rows_equal_lone_runs(monkeypatch, rows, schedule):
    finals, counts = _batch_with_step_counts(monkeypatch, rows, schedule)
    assert len(finals) == len(counts) == len(rows)
    for (state, params), final, steps in zip(rows, finals, counts):
        want = _lone_final(state, params, schedule, steps[-1])
        for got, expected in zip((final.mean, final.normal, final.anomalous), want):
            assert got.tobytes() == expected.tobytes(), steps
        assert np.array_equal(final.normal, final.normal.conj().T)
        assert np.array_equal(final.anomalous, final.anomalous.T)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_single_row_is_bitwise_the_reference(monkeypatch, name):
    # the reference is the row's lone Magnus run at its accepted step count
    _assert_rows_equal_lone_runs(monkeypatch, [STACKED[1]], SCHEDULES[name])


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_stacked_rows_are_bitwise_the_reference(monkeypatch, name):
    _assert_rows_equal_lone_runs(monkeypatch, STACKED, SCHEDULES[name])


def test_squeezed_vacuum_with_diffusion_is_bitwise_the_reference(monkeypatch):
    rows = [(VACUUM_SQUEEZED, SystemParams(kappa1=0.4, kappa2=0.2, gamma_m=0.3, n_th=5.0))]
    _assert_rows_equal_lone_runs(monkeypatch, rows, SCHEDULES["tanh"])


def _change(fine, coarse) -> float:
    """Largest entry change from coarse to fine (mean, N, A), relative to fine's scale max(1, |entries|)."""
    scale = max(1.0, *(np.abs(f).max() for f in fine))
    return max(np.abs(f - c).max() for f, c in zip(fine, coarse)) / scale


def _assert_doubling_stops_at_the_first_settled_pair(state, params, schedule, steps):
    assert len(steps) >= 2 and steps == [200 * 2**k for k in range(len(steps))]
    finals = [_lone_final(state, params, schedule, n) for n in steps[-3:]]
    assert _change(finals[-1], finals[-2]) <= 1e-13
    if len(steps) > 2:
        assert _change(finals[-2], finals[-3]) > 1e-13


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_step_count_doubles_from_200_until_the_change_settles(monkeypatch, name):
    schedule = SCHEDULES[name]
    _, counts = _batch_with_step_counts(monkeypatch, STACKED, schedule)
    for (state, params), steps in zip(STACKED, counts):
        _assert_doubling_stops_at_the_first_settled_pair(state, params, schedule, steps)


def test_faster_couplings_get_more_steps(monkeypatch):
    # measured: S = 400 at amplitude 5, 3,200 at amplitude 50
    rows = [STACKED[1]]
    slow, fast = TrigSchedule(5.0, math.pi / 2), TrigSchedule(50.0, math.pi / 2)
    _, [slow_steps] = _batch_with_step_counts(monkeypatch, rows, slow)
    _, [fast_steps] = _batch_with_step_counts(monkeypatch, rows, fast)
    assert slow_steps[-1] < fast_steps[-1]
    _assert_doubling_stops_at_the_first_settled_pair(*rows[0], fast, fast_steps)


def test_steps_that_hold_a_kink_become_sub_steps_that_meet_at_it(monkeypatch):
    # g0 = 0 on [1, 1.2]; a uniform grid straddles both kinks, where a whole step's error is O(h^2)
    schedule = PiecewiseLinearSchedule((0.0, 1.0, 1.2, 2.2), (0.0, 0.0, 0.0, 5.0), (-5.0, 0.0, 0.0, 0.0))
    params = SystemParams(kappa1=0.1, kappa2=0.1, gamma_m=1e-3, n_th=10.0)
    kinks, t_final = schedule.kinks(0.0, schedule.duration), schedule.duration
    panels, check, final_moments = gaussian._gauged_panels, gaussian._check, gaussian._final_moments
    steps, validated = [], []

    def spy_panels(params, schedule, ts, h):
        # a (sub-)step's nodes are its start + _GL3_NODES * its length
        h = np.broadcast_to(h, len(ts))
        steps.append(np.column_stack([ts[:, 1] - 0.5 * h, ts[:, 1] + 0.5 * h]))
        return panels(params, schedule, ts, h)

    def spy_check(times, *stacks):
        if validated:  # not the input check at t = 0
            validated[-1][1] += len(times)
        return check(times, *stacks)

    def spy_final(*args):
        validated.append([args[4], 0])  # the run's step count, its validated samples
        return final_moments(*args)

    monkeypatch.setattr(gaussian, "_gauged_panels", spy_panels)
    monkeypatch.setattr(gaussian, "_check", spy_check)
    monkeypatch.setattr(gaussian, "_final_moments", spy_final)
    traj = gaussian.integrate(COHERENT, params, schedule, t_final)
    gaussian.integrate_batch([COHERENT], [params], schedule, t_final)
    steps = np.concatenate(steps)
    straddled = (steps[:, :1] + 1e-12 < kinks) & (kinks < steps[:, 1:] - 1e-12)
    assert not straddled.any()
    for kink in kinks:  # each run of integrate and integrate_batch ends a sub-step at each kink
        assert np.sum(np.abs(steps[:, 1] - kink) < 1e-12) == 1 + len(validated)
    # the samples stay on the grid k T / n of whole steps
    n = gaussian._step_count(params, gaussian._peak_coupling(schedule, t_final), t_final)
    ends = np.arange(n // 200, n + 1, n // 200)
    want = np.concatenate([[0.0], np.where(ends == n, t_final, ends * (t_final / n))])
    assert n == 2000 and traj.times.tobytes() == want.tobytes()
    # every run of integrate_batch validates 200 samples per kink piece, spread evenly over [0, T],
    # or every step when it has fewer
    assert len(validated) >= 2
    assert all(count >= min(run_steps, 200 * (len(kinks) + 1)) for run_steps, count in validated)


def test_row_that_cannot_settle_names_its_row():
    # amplitude 5,000 needs about 10^5 steps of pi / 2, past the 2^16 cap
    rows = [STACKED[1], STACKED[1]]
    schedule = TrigSchedule(5000.0, math.pi / 2)
    with pytest.raises(GaussianError, match=r"^row 0: .*did not settle.*65536 steps"):
        gaussian.integrate_batch([st for st, _ in rows], [p for _, p in rows], schedule, schedule.duration)


# -- accuracy oracle -----------------------------------------------------------

# measured against the mpmath reference: F within 1.7e-15 (fig1b_squeezed) and delta_F within
# 6.7e-13 (fig1c_squeezed) relative; a 3x and a 2.2x margin
F_RTOL, DELTA_F_RTOL = 5e-15, 1.5e-12


@pytest.mark.parametrize("name", CONFIGS)
def test_fig1_fidelities_are_close_to_a_converged_reference(name):
    f_num, delta_f = program_fidelities(name)
    np.testing.assert_allclose(f_num, column(name, "F"), rtol=F_RTOL, atol=0.0)
    if name in DELTA_F_CONFIGS:
        np.testing.assert_allclose(delta_f, column(name, "delta_F"), rtol=DELTA_F_RTOL, atol=0.0)


def test_doubled_diffusion_fails_the_accuracy_oracle(monkeypatch):
    f_ref, delta_ref = column("fig1c", "F"), column("fig1c", "delta_F")
    diffusion = gaussian._diffusion
    monkeypatch.setattr(gaussian, "_diffusion", lambda params_seq: 2.0 * diffusion(params_seq))
    f_num, delta_f = program_fidelities.__wrapped__("fig1c")
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(f_num, f_ref, rtol=F_RTOL, atol=0.0)
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(delta_f, delta_ref, rtol=DELTA_F_RTOL, atol=0.0)
    # doubling the diffusion roughly doubles delta_F
    assert np.abs(delta_f / delta_ref - 2.0).max() < 0.01


# measured against the mpmath reference: gaussian.integrate's F within 1.3e-15 and delta_F within
# 1.2e-12 relative on fig1c, 2.5e-15 and 2.4e-12 on fig1c_squeezed, on its fixed grid of 2,000 steps
def test_integrate_fig1c_rows_are_close_to_the_converged_reference():
    for name in DELTA_F_CONFIGS:
        f_num, delta_f = program_fidelities(name, serial=True)
        np.testing.assert_allclose(f_num, column(name, "F"), rtol=1e-14, atol=0.0, err_msg=name)
        np.testing.assert_allclose(delta_f, column(name, "delta_F"), rtol=5e-12, atol=0.0, err_msg=name)
