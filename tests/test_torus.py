import numpy as np
from hypothesis import example, given, strategies as st

from resodrift.torus import (
    PhaseState,
    circle_delta,
    torus_distance,
    wrap,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_wrap_known_values():
    assert wrap(1.25) == 0.25
    assert wrap(-0.25) == 0.75
    assert wrap(3.0) == 0.0
    assert wrap(0.0) == 0.0
    np.testing.assert_allclose(wrap(np.array([-1.5, 0.5, 2.5])), [0.5, 0.5, 0.5])


@given(finite)
def test_wrap_lands_in_unit_interval(x):
    w = wrap(x)
    assert 0.0 <= w < 1.0


@given(finite, st.integers(min_value=-5, max_value=5))
@example(x=-2.220446049250313e-16, n=-2)
def test_wrap_is_periodic(x, n):
    # compare on the circle: wrap(x) = 0.9999999999999998 and wrap(x - 2) = 0.0
    # are the same torus point, 2.2e-16 apart across the seam
    assert abs(circle_delta(wrap(x + n), wrap(x))) <= 1e-9


@given(finite, finite)
def test_circle_delta_range_and_antisymmetry(a, b):
    d = circle_delta(a, b)
    assert -0.5 <= d < 0.5
    # antisymmetry holds except at the cut point d = -1/2
    if abs(d) < 0.5 - 1e-9:
        assert np.isclose(circle_delta(b, a), -d, atol=1e-9)


def test_circle_delta_crosses_the_seam():
    assert np.isclose(circle_delta(0.95, 0.05), -0.1)
    assert np.isclose(circle_delta(0.05, 0.95), 0.1)
    assert circle_delta(0.5, 0.0) == -0.5


def test_torus_distance_sup_norm():
    d = torus_distance((0.95, 0.10), (0.05, 0.90))
    assert np.isclose(d, 0.2)
    assert torus_distance((0.3, 0.7), (0.3, 0.7)) == 0.0


def test_phase_state_wraps_its_angles():
    p = PhaseState(1.25, -0.5, 0.0, 0.0)
    assert (p.theta1, p.theta2) == (0.25, 0.5)
    q = PhaseState(p.theta1 + 0.5, p.theta2 + 0.75, 0.0, 0.0)
    assert (q.theta1, q.theta2) == (0.75, 0.25)
    assert np.isclose(p.distance(q), 0.5)


def test_phase_state_array_round_trip():
    s = PhaseState.make(0.1, 1.9, -0.4, 2.5)
    arr = s.as_array()
    t = PhaseState.from_array(arr)
    assert t == s
    # angles were wrapped on the way in
    assert np.isclose(s.theta2, 0.9)
    np.testing.assert_allclose(arr, [0.1, 0.9, -0.4, 2.5])
