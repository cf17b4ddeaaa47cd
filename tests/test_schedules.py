"""The coupling-schedule contract: one numpy formula serves scalar and array times.

values, derivatives and g0 take a 0-d or n-d float t and return arrays of its
shape, equal bit for bit to per-element scalar calls; a time outside
[0, duration], or NaN, raises ModelError naming the first such time.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omtransfer.model import (
    ConstantCoupling,
    ModelError,
    PiecewiseLinearSchedule,
    TanhRampSchedule,
    TrigSchedule,
    adiabaticity,
)

_coupling = st.floats(-10.0, 10.0, allow_subnormal=False)
_positive = st.floats(0.1, 20.0)


@st.composite
def _piecewise(draw):
    steps = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6))
    times = (0.0, *np.cumsum(steps).tolist())
    g1, g2 = (tuple(draw(st.lists(_coupling, min_size=len(times), max_size=len(times)))) for _ in "12")
    return PiecewiseLinearSchedule(times, g1, g2)


_SCHEDULES = {
    "constant": st.builds(ConstantCoupling, _coupling, _coupling, st.one_of(_positive, st.just(np.inf))),
    "trig": st.builds(TrigSchedule, _positive, _positive),
    "tanh": _positive.flatmap(
        lambda duration: st.builds(
            TanhRampSchedule, _positive, st.floats(0.0, duration), st.floats(0.05, 5.0), st.just(duration)
        )
    ),
    "piecewise": _piecewise(),
}


@st.composite
def _schedule_and_times(draw, kind):
    schedule = draw(_SCHEDULES[kind])
    end = schedule.duration if np.isfinite(schedule.duration) else 100.0
    special = [0.0, end] + list(getattr(schedule, "times", ()))
    n = draw(st.integers(1, 24))
    times = draw(st.lists(st.one_of(st.floats(0.0, end), st.sampled_from(special)), min_size=n, max_size=n))
    shape = draw(st.sampled_from([(n,), (1, n), (n, 1)]))
    return schedule, np.array(times).reshape(shape)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("kind", sorted(_SCHEDULES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_array_calls_equal_scalar_calls_bitwise(kind, data):
    schedule, times = data.draw(_schedule_and_times(kind))
    for method in (schedule.values, schedule.derivatives):
        pair = method(times)
        assert all(np.shape(part) == times.shape for part in pair)
        scalar = np.array([method(float(t)) for t in times.ravel()])
        assert _bits(np.stack([part.ravel() for part in pair], axis=1)) == _bits(scalar)
    g0 = schedule.g0(times)
    assert np.shape(g0) == times.shape
    assert _bits(g0.ravel()) == _bits([schedule.g0(float(t)) for t in times.ravel()])


def test_piecewise_breakpoint_slopes_on_arrays():
    sched = PiecewiseLinearSchedule((0.0, 1.0, 3.0, 4.0), (0.0, 2.0, 2.0, -1.0), (-4.0, -2.0, 0.0, 0.0))
    ts = np.array([[0.0, 1.0], [3.0, 4.0]])
    g1, g2 = sched.values(ts)
    assert g1.tolist() == [[0.0, 2.0], [2.0, -1.0]] and g2.tolist() == [[-4.0, -2.0], [0.0, 0.0]]
    d1, d2 = sched.derivatives(ts)
    # a breakpoint takes the right-hand slope, t = duration the left-hand one
    assert d1.tolist() == [[2.0, 0.0], [-3.0, -3.0]]
    assert d2.tolist() == [[2.0, 1.0], [0.0, 0.0]]
    # just inside each segment agrees with the breakpoint's slope
    d1_in, d2_in = sched.derivatives(np.array([0.5, 2.0, 3.5, 3.999]))
    assert d1_in.tolist() == [2.0, 0.0, -3.0, -3.0] and d2_in.tolist() == [2.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("kind", sorted(_SCHEDULES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_time_outside_domain_is_named(kind, data):
    schedule, times = data.draw(_schedule_and_times(kind))
    times = times.ravel()
    bad = [-1e-9, -2.5, np.nan]
    if np.isfinite(schedule.duration):
        bad.append(np.nextafter(schedule.duration, np.inf))
    first = data.draw(st.sampled_from(bad))
    at = data.draw(st.integers(0, times.size))
    # a second bad time later on must not be the one named
    probe = np.insert(np.append(times, data.draw(st.sampled_from(bad))), at, first)
    message = re.escape(f"time {first} outside the schedule domain")
    for method in (schedule.values, schedule.derivatives, schedule.g0):
        with pytest.raises(ModelError, match=message):
            method(probe)
        with pytest.raises(ModelError, match=message):
            method(first)


def _sample_times(schedule, n_samples):
    """adiabaticity's times: each breakpoint and n_samples interior times of each piece between them."""
    span = schedule.duration if np.isfinite(schedule.duration) else 1.0
    edges = [0.0, *(b for b in getattr(schedule, "times", ()) if 0.0 < b < span), span]
    pieces = [lo + (hi - lo) * k / (n_samples + 1) for lo, hi in zip(edges, edges[1:]) for k in range(n_samples + 1)]
    return pieces[1:]  # not t = 0


def _reference_adiabaticity(schedule, n_samples=1001):
    """The scalar-time loop adiabaticity replaced, on its sample times."""
    worst = 0.0
    for t in _sample_times(schedule, n_samples):
        g1, g2 = schedule.values(t)
        d1, d2 = schedule.derivatives(t)
        g0sq = g1 * g1 + g2 * g2
        if g0sq == 0.0:
            raise ModelError(f"g0 vanishes at interior time t = {t}")
        worst = max(worst, max(abs(d1), abs(d2)) / g0sq)
    return worst


@pytest.mark.parametrize("kind", sorted(_SCHEDULES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_adiabaticity_equals_the_scalar_loop(kind, data):
    schedule = data.draw(_SCHEDULES[kind])
    try:
        want = _reference_adiabaticity(schedule)
    except ModelError as exc:
        with pytest.raises(ModelError, match=re.escape(str(exc))):
            adiabaticity(schedule)
    else:
        assert adiabaticity(schedule) == want


def test_adiabaticity_names_first_interior_time_where_g0_vanishes():
    # g0 = 0 on [1.5, 2.25]; the samples are each breakpoint and the interior of each piece
    sched = PiecewiseLinearSchedule((0.0, 1.5, 2.25, 3.0), (1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, -1.0))
    first = next(t for t in _sample_times(sched, 999) if sched.g0(t) == 0.0)
    assert first == 1.5
    with pytest.raises(ModelError, match=re.escape(f"g0 vanishes at interior time t = {first}")):
        adiabaticity(sched, n_samples=999)
    # g0 first vanishes at the breakpoint 1.7, between two interior times of a single grid
    later = PiecewiseLinearSchedule((0.0, 1.7, 2.25, 3.0), (1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, -1.0))
    first = next(t for t in _sample_times(later, 999) if later.g0(t) == 0.0)
    assert first == 1.7
    with pytest.raises(ModelError, match=re.escape(f"g0 vanishes at interior time t = {first}")):
        adiabaticity(later, n_samples=999)
