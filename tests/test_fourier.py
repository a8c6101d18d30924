import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resodrift as rd
from resodrift.averaging import GeneratorChi, first_remainder_series, solve_homological
from resodrift import fourier
from resodrift.fourier import FourierPerturbation, canonical_mode
from resodrift.poly import PolyField
from resodrift.systems import ActionWindow, SystemBundle, star_window

from series_reference import reference_rows
from test_averaging import _action_dependent_bundle

TWO_PI = 2.0 * np.pi


def brute_eval(terms, th1, th2, I1, I2):
    """Direct trig sum, no canonicalization: the reference the class must match."""
    total = np.zeros(np.broadcast(np.asarray(th1), np.asarray(I1)).shape)
    for k, a, b in terms:
        phase = TWO_PI * (k[0] * np.asarray(th1) + k[1] * np.asarray(th2))
        av = a(I1, I2) if isinstance(a, PolyField) else a
        bv = b(I1, I2) if isinstance(b, PolyField) else b
        total = total + av * np.cos(phase) + bv * np.sin(phase)
    return total


def test_canonical_mode_folding():
    assert canonical_mode((1, -2)) == ((1, -2), 1)
    assert canonical_mode((-1, 2)) == ((1, -2), -1)
    assert canonical_mode((0, 3)) == ((0, 3), 1)
    assert canonical_mode((0, -3)) == ((0, 3), -1)
    assert canonical_mode((0, 0)) == ((0, 0), 1)


def test_evaluate_matches_direct_sum(rng):
    terms = [
        ((1, 0), 0.3, -0.2),
        ((0, 1), 0.0, 1.0),
        ((2, -1), -0.5, 0.25),
        ((0, 0), 0.1, 0.0),
    ]
    f = FourierPerturbation.from_terms(terms)
    th1, th2 = rng.uniform(0, 1, (2, 60))
    I1, I2 = rng.uniform(-1, 1, (2, 60))
    np.testing.assert_allclose(
        f(th1, th2, I1, I2), brute_eval(terms, th1, th2, I1, I2), atol=1e-13
    )


def test_negative_modes_fold_with_sin_parity(rng):
    # cos is even and sin is odd under k -> -k, so these two must be equal
    f1 = FourierPerturbation.from_terms([((-1, 2), 0.4, 0.7)])
    f2 = FourierPerturbation.from_terms([((1, -2), 0.4, -0.7)])
    assert f1.mode_keys == f2.mode_keys == [(1, -2)]
    th1, th2 = rng.uniform(0, 1, (2, 30))
    np.testing.assert_allclose(
        f1(th1, th2, 0.0, 0.0), f2(th1, th2, 0.0, 0.0), atol=1e-15
    )


def test_duplicate_terms_accumulate():
    f = FourierPerturbation.from_terms([((1, 1), 0.25, 0.0), ((-1, -1), 0.25, 0.5)])
    a, b = f.coefficient((1, 1))
    assert a(0, 0) == 0.5
    assert b(0, 0) == -0.5


def test_action_dependent_coefficients(rng):
    poly = PolyField.from_terms([(1, 0, 1.0), (0, 0, 0.5)])
    terms = [((1, 0), poly, 0.0)]
    f = FourierPerturbation.from_terms(terms)
    assert not f.is_action_independent
    th1, th2 = rng.uniform(0, 1, (2, 20))
    I1, I2 = rng.uniform(-1, 1, (2, 20))
    np.testing.assert_allclose(
        f(th1, th2, I1, I2), (I1 + 0.5) * np.cos(TWO_PI * th1), atol=1e-13
    )


def test_gradients_against_finite_differences(rng):
    poly = PolyField.from_terms([(0, 1, 1.0)])
    f = FourierPerturbation.from_terms(
        [((1, 0), 0.3, 0.1), ((1, 1), poly, -0.2), ((0, 2), 0.0, 0.7)]
    )
    h = 1e-6
    for _ in range(25):
        th1, th2 = rng.uniform(0, 1, 2)
        I1, I2 = rng.uniform(-1, 1, 2)
        rows = f.table().evaluate(th1, th2, I1, I2)
        g_th, g_I = rows[1:3], rows[3:5]
        fd = [
            (f(th1 + h, th2, I1, I2) - f(th1 - h, th2, I1, I2)) / (2 * h),
            (f(th1, th2 + h, I1, I2) - f(th1, th2 - h, I1, I2)) / (2 * h),
            (f(th1, th2, I1 + h, I2) - f(th1, th2, I1 - h, I2)) / (2 * h),
            (f(th1, th2, I1, I2 + h) - f(th1, th2, I1, I2 - h)) / (2 * h),
        ]
        assert abs(g_th[0] - fd[0]) < 1e-6
        assert abs(g_th[1] - fd[1]) < 1e-6
        assert abs(g_I[0] - fd[2]) < 1e-8
        assert abs(g_I[1] - fd[3]) < 1e-8


def test_filter_and_max_mode():
    f = FourierPerturbation.from_terms(
        [((1, 0), 1.0, 0.0), ((0, 3), 0.0, 1.0), ((2, -2), 0.5, 0.0)]
    )
    assert f.max_mode == 3
    resonant = f.filter(lambda k: k[1] == 0)
    assert resonant.mode_keys == [(1, 0)]
    nothing = f.filter(lambda k: False)
    assert nothing.is_zero
    assert nothing.max_mode == 0


def test_zero_perturbation_evaluates_to_zero():
    z = FourierPerturbation.zero()
    assert z.is_zero
    assert z.mode_keys == []
    vals = z(np.array([0.1, 0.2]), np.array([0.3, 0.4]), 0.0, 0.0)
    np.testing.assert_array_equal(vals, np.zeros(2))


@pytest.mark.parametrize("case", ["scaled", "unperturbed-bundle"])
def test_a_zero_scale_drops_every_mode(case):
    # exact zeros are dropped, so eps = 0 adds no dead mode to H's table
    f = rd.get_entry("generic3").perturbation
    if case == "scaled":
        assert (0.0 * f).is_zero and (f * 0.0).mode_keys == []
    else:
        assert rd.make_bundle("generic3", 0.0).series.mode_keys == [(0, 0)]


# -- the packed table against the per-mode loop it replaced --------------------
#
# The loops below are the evaluators FourierPerturbation and GeneratorChi used
# before the packed ModeTable: one pass per mode, polynomials through
# PolyField.  They return the summed rows and, per row, the sum of the
# absolute values of the terms, which sets the tolerance: the table sums the
# same terms in another order and reads the polynomials off a power table.

REL = 1e-12


def reference_series(modes, th1, th2, I1, I2):
    """(value, d/dtheta1, d/dtheta2, d/dI1, d/dI2) of sum_k a_k cos + b_k sin, and sum |terms|."""
    th1, th2, I1, I2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (th1, th2, I1, I2)))
    rows = np.zeros((5,) + th1.shape)
    size = np.zeros((5,) + th1.shape)
    for (k1, k2), (a, b) in modes.items():
        phase = TWO_PI * (k1 * th1 + k2 * th2)
        c, s = np.cos(phase), np.sin(phase)
        av, bv = a(I1, I2), b(I1, I2)
        pairs = [
            (av * c, bv * s),
            (TWO_PI * k1 * bv * c, -TWO_PI * k1 * av * s),
            (TWO_PI * k2 * bv * c, -TWO_PI * k2 * av * s),
            (a.partial(1, 0)(I1, I2) * c, b.partial(1, 0)(I1, I2) * s),
            (a.partial(0, 1)(I1, I2) * c, b.partial(0, 1)(I1, I2) * s),
        ]
        for r, (x, y) in enumerate(pairs):
            rows[r] += x + y
            size[r] += np.abs(x) + np.abs(y)
    return rows, size


def reference_chi(system, numerators, th1, th2, I1, I2):
    """(chi, d/dtheta1, d/dtheta2, d/dI1, d/dI2) by the quotient rule per mode, and sum |terms|."""
    th1, th2, I1, I2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (th1, th2, I1, I2)))
    om1, om2 = system.omega_polys()
    rows = np.zeros((5,) + th1.shape)
    size = np.zeros((5,) + th1.shape)
    for (k1, k2), (nc, ns) in numerators.items():
        phase = TWO_PI * (k1 * th1 + k2 * th2)
        c, s = np.cos(phase), np.sin(phase)
        D = TWO_PI * (k1 * om1 + k2 * om2)
        Dv = D(I1, I2)
        num = nc(I1, I2) * c + ns(I1, I2) * s
        swing = (ns(I1, I2) * c - nc(I1, I2) * s) / Dv
        terms = [(num / Dv,), (TWO_PI * k1 * swing,), (TWO_PI * k2 * swing,)]
        for d in ((1, 0), (0, 1)):
            dnum = nc.partial(*d)(I1, I2) * c + ns.partial(*d)(I1, I2) * s
            terms.append((dnum / Dv, -num * D.partial(*d)(I1, I2) / Dv**2))
        for r, parts in enumerate(terms):
            rows[r] += sum(parts)
            size[r] += sum(np.abs(x) for x in parts)
    return rows, size


def assert_rows_close(got, want, size):
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= REL * (1.0 + size))


_coefficient = st.floats(-1.0, 1.0, allow_nan=False)
# action-dependent coefficients of total degree <= 3
_poly = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), _coefficient).filter(lambda t: t[0] + t[1] <= 3),
    max_size=4,
).map(PolyField.from_terms)
_mode = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
_series = st.lists(st.tuples(_mode, _poly, _poly), max_size=5).map(FourierPerturbation.from_terms)
# generator modes have k2 != 0; see _CHI_WINDOW for the divisor floor
_chi_modes = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(1, 5).flatmap(lambda k: st.sampled_from([k, -k]))),
    st.tuples(_poly, _poly),
    max_size=4,
)
_seed = st.integers(0, 2**32 - 1)

# generic3: omega = (I2, I1 - I2).  On this window |k.omega| >= |k2| I1 - |k1 - k2| |I2|
# >= 0.5 - 10 * 0.02 = 0.3, above the floor varpi / 2 = 0.25 for every |k| <= 5.
_GENERIC3 = rd.get_entry("generic3").system
_CHI_WINDOW = ActionWindow(0.5, 1.5, -0.02, 0.02)


def _points(rng, n, lo=(-2.0, -2.0), hi=(2.0, 2.0)):
    th1, th2 = rng.uniform(-1.0, 2.0, (2, n))
    return th1, th2, rng.uniform(lo[0], hi[0], n), rng.uniform(lo[1], hi[1], n)


def _table_rows(f, *pts):
    return np.concatenate([np.asarray(f(*pts))[None], np.asarray(f.table().evaluate(*pts))[1:]])


@settings(max_examples=60, deadline=None)
@given(f=_series, seed=_seed)
def test_series_matches_per_mode_loop(f, seed):
    rng = np.random.default_rng(seed)
    th1, th2, I1, I2 = _points(rng, 7)
    want, size = reference_series(f.modes, th1, th2, I1, I2)
    # (n,) arrays: the array branch
    assert_rows_close(_table_rows(f, th1, th2, I1, I2), want, size)
    # single states: the scalar branch, which must also agree with the arrays
    for i in range(th1.size):
        pt = (th1[i], th2[i], I1[i], I2[i])
        assert isinstance(f(*pt), float)
        assert_rows_close(_table_rows(f, *pt), want[:, i], size[:, i])
        assert_rows_close(f.table().evaluate(*pt), f.table().evaluate(th1, th2, I1, I2)[:, i], size[:, i])
    # broadcast shapes: an angle grid against action columns
    grid = (th1[:, None], th2[:, None], I1[None, :4], I2[None, :4])
    want, size = reference_series(f.modes, *grid)
    assert_rows_close(_table_rows(f, *grid), want, size)


@settings(max_examples=40, deadline=None)
@given(f=_series, seed=_seed, eps=st.floats(0.0, 0.5))
def test_bundle_rhs_matches_per_mode_loop(f, seed, eps):
    bundle = SystemBundle(_GENERIC3, f, eps)
    fun = bundle.rhs()
    rng = np.random.default_rng(seed)
    y = np.array(_points(rng, 6))
    rows, size = reference_series(f.modes, *y)
    omega = _GENERIC3.omega(y[2], y[3])
    want = np.concatenate([omega + eps * rows[3:5], -eps * rows[1:3]])
    tol = np.concatenate([np.abs(omega) + eps * size[3:5], eps * size[1:3]])
    assert_rows_close(fun(0.0, y), want, tol)
    for i in range(y.shape[1]):
        out = fun(0.0, y[:, i].copy())
        assert out.shape == (4,)
        assert_rows_close(out, want[:, i], tol[:, i])


@pytest.mark.parametrize("eps", [1e-2, 0.0])
def test_vector_field_matches_per_mode_loop(eps, rng):
    # an action-dependent f with a (0, 0) mode, which H's series adds to h
    f = _action_dependent_series() + FourierPerturbation.from_terms(
        [((0, 0), PolyField.from_terms([(0, 0, -0.2), (1, 1, 0.4), (2, 0, 0.3)]), 0.0)]
    )
    bundle = SystemBundle(_GENERIC3, f, eps)
    pts = _points(rng, 9)
    rows, size = reference_series(f.modes, *pts)
    omega = _GENERIC3.omega(pts[2], pts[3])
    want = (omega + eps * rows[3:5], -eps * rows[1:3])
    tol = (np.abs(omega) + eps * size[3:5], eps * size[1:3])
    states = [pts] + [tuple(float(v[i]) for v in pts) for i in range(9)]
    for i, state in enumerate(states):
        # the (4, n) arrays, then each (4,) state in floats
        column = slice(None) if i == 0 else i - 1
        got = bundle.vector_field(*state)
        for g, w, t in zip(got, want, tol):
            assert_rows_close(g, w[:, column], t[:, column])
        if eps == 0.0:
            assert np.all(np.asarray(got[1]) == 0.0)


@settings(max_examples=40, deadline=None)
@given(numerators=_chi_modes, seed=_seed)
def test_generator_matches_per_mode_loop(numerators, seed):
    # a mode k divides by 2 pi k.omega, and the table by 2 pi s k.omega with s k
    # canonical, so the numerator series carries the sign s
    series = FourierPerturbation.from_terms(
        (k, canonical_mode(k)[1] * nc, canonical_mode(k)[1] * ns) for k, (nc, ns) in numerators.items())
    chi = GeneratorChi(_GENERIC3, series, 5, _CHI_WINDOW)
    rng = np.random.default_rng(seed)
    w = _CHI_WINDOW
    pts = _points(rng, 6, (w.i1_min, w.i2_min), (w.i1_max, w.i2_max))
    want, size = reference_chi(_GENERIC3, numerators, *pts)

    def chi_rows(*p):
        g_theta, g_action = chi.gradients(*p)
        return np.concatenate([np.asarray(chi.evaluate(*p))[None], g_theta, g_action])

    assert_rows_close(chi_rows(*pts), want, size)
    for i in range(pts[0].size):
        assert_rows_close(chi_rows(*(v[i] for v in pts)), want[:, i], size[:, i])
    grid = (pts[0][:, None], pts[1][:, None], pts[2][None, :3], pts[3][None, :3])
    want, size = reference_chi(_GENERIC3, numerators, *grid)
    assert_rows_close(chi_rows(*grid), want, size)


@pytest.mark.parametrize("cast", [np.float32, np.float16, np.longdouble, int, np.int64])
def test_a_scalar_of_any_real_type_is_evaluated_in_float64(cast):
    """A single point gives the rows of the float64 values its (1,) arrays are read as.

    The two branches sum in different orders, so a point and its (1,) arrays
    agree to rounding; the single point must not compute in its own type.
    """
    table = rd.make_bundle("generic3", 1e-2).series.table()
    rng = np.random.default_rng(11)
    if cast in (int, np.int64):
        states = rng.integers(-3, 4, (20, 4)).tolist()
    else:
        # a long double / 3 carries bits that float64 rounds off
        states = rng.uniform([-1.0, -1.0, 0.5, -0.5], [2.0, 2.0, 1.5, 0.5], (20, 4)).astype(cast)
        states = states / 3 if cast is np.longdouble else states
    for state in states:
        point = [cast(v) for v in state]
        arrays = [np.array([v]) for v in point]
        read = [float(np.asarray(v, dtype=float)[0]) for v in arrays]
        assert table.evaluate(*point) == table.evaluate(*read)
        assert table.values(*point) == table.values(*read)
        np.testing.assert_allclose(table.evaluate(*point), table.evaluate(*arrays)[:, 0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("coefficient", [
    PolyField.from_terms([(2, 0, 0.5)]),
    PolyField.from_terms([(0, 2, -0.5)]),
    PolyField.from_terms([(3, 0, 1.0)]),
    PolyField.from_terms([(1, 1, 1.0)]),
], ids=["0.5*I1^2", "-0.5*I2^2", "I1^3", "I1*I2"])
def test_a_one_term_series_has_the_same_bits_on_arrays_and_single_states(coefficient):
    """Both branches build a monomial by the same multiplications, so one term reads the same bits.

    A one-term series leaves no sum to order, so any difference between the
    array and single-state values is in the powers.  I1 I2 takes no power
    above one and is the control.
    """
    f = FourierPerturbation.from_terms([((0, 0), coefficient, 0.0)])
    states = np.random.default_rng(30).uniform([-1.0, -1.0, -2.0, -2.0], [2.0, 2.0, 2.0, 2.0], (4_000, 4))
    on_arrays = f.table().values(*states.T)
    one_by_one = np.array([f.table().values(*state) for state in states.tolist()])
    differ = np.flatnonzero(on_arrays != one_by_one)
    assert differ.size == 0, f"{differ.size} of 4000 points differ, first at {states[differ[0]]}"


def test_the_single_point_evaluator_refuses_divided_tables_and_divisors():
    """Rendering chi1's numerators would read 0.4755 at this state, where chi1 is 0.0757."""
    entry = rd.get_entry("generic3")
    chi = solve_homological(entry.system, entry.perturbation, 125, star_window(entry.system.resonance, 2e-3))
    state = (0.1, 0.2, 1.0, 0.0)
    divided, over_divisors = chi._table, chi.series().table()
    assert divided.divided and not over_divisors.divided and over_divisors._divisors
    for table in (divided, over_divisors):
        with pytest.raises(ValueError, match="undivided tables without divisors"):
            table._point_function()
        assert table.point_source is None
        # a single state of either still takes the array branch
        assert table.values(*state) == pytest.approx(0.0757, abs=5e-5)


def test_array_branch_crosses_block_boundaries(rng):
    a = PolyField.from_terms([(0, 0, 0.3), (1, 0, -0.7), (1, 1, 0.5), (0, 2, 1.2)])
    b = PolyField.from_terms([(2, 0, 0.4), (0, 1, -0.9), (3, 0, 0.1)])
    f = FourierPerturbation.from_terms([((1, -2), a, b), ((0, 1), b, 0.2), ((2, 1), 0.3, a)])
    pts = _points(rng, 2 * f.table().block_points + 5)
    want, size = reference_series(f.modes, *pts)
    assert_rows_close(_table_rows(f, *pts), want, size)


# -- tensor grids: ModeTable.outer against the pointwise evaluator -------------


def _action_dependent_series():
    a = PolyField.from_terms([(0, 0, 0.3), (1, 0, -0.7), (1, 1, 0.5), (0, 2, 1.2)])
    b = PolyField.from_terms([(2, 0, 0.4), (0, 1, -0.9), (3, 0, 0.1)])
    return FourierPerturbation.from_terms([((1, -2), a, b), ((0, 1), b, 0.2), ((2, 1), 0.3, a)])


def _generic3_chi():
    """The divided generator of generic3 at eps 1e-3, on its kappa window."""
    entry = rd.get_entry("generic3")
    window = rd.star_window(entry.system.resonance, 2.0113351756469653e-3)
    return rd.solve_homological(entry.system, entry.perturbation, 125, window), window


def _grid(rng, window):
    """Angles of shape (3, 4) and actions of shape (2, 5), drawn at random."""
    angles = (rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (1, 4)))
    actions = (
        rng.uniform(window.i1_min, window.i1_max, (2, 1)),
        rng.uniform(window.i2_min, window.i2_max, (1, 5)),
    )
    return angles, actions


@pytest.mark.parametrize("case", ["undivided", "divided"])
def test_outer_matches_pointwise_evaluate_on_the_meshgrid(case, rng):
    if case == "undivided":
        table, window = _action_dependent_series().table(), ActionWindow(0.5, 1.5, -0.3, 0.3)
    else:
        chi, window = _generic3_chi()
        table = chi._table
    angles, actions = _grid(rng, window)
    got = table.outer(*angles, *actions, grad=True)
    # the layout: rows, then the action shape, then the angle shape
    assert got.shape == (5, 2, 5, 3, 4)
    t1, t2 = np.broadcast_arrays(*angles)
    x1, x2 = np.broadcast_arrays(*actions)
    want = np.asarray(table.evaluate(t1, t2, x1[..., None, None], x2[..., None, None]))[:5]
    assert want.shape == got.shape
    for r in range(5):
        sup = np.max(np.abs(want[r]))
        assert sup > 0.0
        assert np.max(np.abs(got[r] - want[r])) <= 1e-12 * sup
    value = table.outer(*angles, *actions)
    assert value.shape == (2, 5, 3, 4)
    assert np.max(np.abs(value - want[0])) <= 1e-12 * np.max(np.abs(want[0]))


@pytest.mark.parametrize("grad", [False, True])
def test_outer_blocks_slice_the_actions_of_outer(grad, rng, monkeypatch):
    table = _action_dependent_series().table()
    angles, actions = _grid(rng, ActionWindow(0.5, 1.5, -0.3, 0.3))
    whole = table.outer(*angles, *actions, grad=grad).reshape(5 if grad else 1, 10, 12)
    # room for the angle table and two action points per block
    per_action = (5 if grad else 1) * (12 + 2 * table.K.shape[0]) + table._width + 3 * table._n_poly
    monkeypatch.setattr(fourier, "BLOCK_VALUES", table.K.shape[0] * 2 * 12 + 2 * per_action)
    # every block is a view of one buffer, so keep copies
    blocks = [rows.copy() for rows in table.outer_blocks(*angles, *actions, grad=grad)]
    assert [rows.shape for rows in blocks] == [(whole.shape[0], 2, 12)] * 5
    got = np.concatenate(blocks, axis=1)
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-12 * np.max(np.abs(whole)))


# -- series over divisors: generators, brackets, bounds --------------------------

# an action-dependent series with a mode (2, 2) that shares the divisor of (1, 1)
F = FourierPerturbation.from_terms([
    ((1, 0), 0.3, PolyField.from_terms([(0, 0, 0.1), (1, 0, 0.2)])),
    ((0, 1), PolyField.from_terms([(0, 0, 0.2), (1, 0, 0.1)]), 0.05),
    ((1, 1), 0.0, PolyField.from_terms([(0, 1, 0.5), (1, 0, 0.05)])),
    ((2, 2), PolyField.from_terms([(2, 0, 0.07)]), -0.02),
])


def values(series, points):
    return series.table().values(*points)


def _over(f, divisors):
    """f as a series over divisors, every term with divisor power 0."""
    return FourierPerturbation(np.pad(f.e, ((0, 0), (0, len(divisors)))), f.c, divisors)


def _chi_and_points(seed=7, n=300):
    system = rd.get_entry("generic3").system
    window = star_window(system.resonance, 0.02)
    chi = solve_homological(system, F, 8, window)
    rng = np.random.default_rng(seed)
    points = tuple(rng.uniform(lo, hi, n) for lo, hi in
                   ((0.0, 1.0), (0.0, 1.0), (window.i1_min, window.i1_max), (window.i2_min, window.i2_max)))
    return chi, window, points


def test_generator_series_matches_the_divided_table():
    chi, _, points = _chi_and_points()
    series = chi.series()
    # (1, 1) and (2, 2) divide by one divisor I1, (0, 1) by I1 - I2
    assert len(series.divisors) == 2
    scale = np.max(np.abs(chi.evaluate(*points)))
    assert np.max(np.abs(values(series, points) - chi.evaluate(*points))) <= 1e-14 * scale


def test_fourier_series_keeps_its_coefficients():
    chi, _, points = _chi_and_points()
    series = _over(F, chi.series().divisors)
    assert np.max(np.abs(values(series, points) - F(*points))) <= 1e-15
    table = series.table()
    a, b = table.coefficients(points[2], points[3])
    assert [tuple(k) for k in table.K] == F.mode_keys
    for k, ak, bk in zip(table.K, a, b):
        pa, pb = F.coefficient(k)
        np.testing.assert_allclose(ak, pa(points[2], points[3]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(bk, pb(points[2], points[3]), rtol=0, atol=1e-15)


def test_bracket_matches_the_pointwise_bracket():
    # {G, chi} = G_theta . chi_I - G_I . chi_theta from the rows of the tables
    chi, _, points = _chi_and_points()
    chi_theta, chi_I = chi.gradients(*points)
    G = F.table().evaluate(*points)
    pointwise = G[1] * chi_I[0] + G[2] * chi_I[1] - G[3] * chi_theta[0] - G[4] * chi_theta[1]
    series = F.bracket(chi.series())
    assert np.max(np.abs(values(series, points) - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))
    # and once more, on a bracket whose terms carry divisor powers
    twice = series.bracket(chi.series())
    h = 1e-6
    shifted = [tuple(p + h * (i == j) for i, p in enumerate(points)) for j in range(4)]
    back = [tuple(p - h * (i == j) for i, p in enumerate(points)) for j in range(4)]
    d = [(values(series, s) - values(series, b)) / (2 * h) for s, b in zip(shifted, back)]
    fd = d[0] * chi_I[0] + d[1] * chi_I[1] - d[2] * chi_theta[0] - d[3] * chi_theta[1]
    assert np.max(np.abs(values(twice, points) - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_bound_dominates_the_series_and_pruning_counts_what_it_drops():
    chi, window, points = _chi_and_points()
    series = F.bracket(chi.series())
    assert series.bound(window) >= np.max(np.abs(values(series, points)))
    bounds = series.bounds(window)
    floor = float(np.median(bounds))
    kept, dropped = series.pruned(window, floor)
    assert len(kept) == np.count_nonzero(bounds > floor)
    assert dropped == pytest.approx(float(np.sum(bounds[bounds <= floor])), rel=1e-15)
    assert np.max(np.abs(values(series, points) - values(kept, points))) <= dropped


def test_wide_keys_merge_as_the_packed_ones(monkeypatch):
    # rows whose mixed-radix key could overflow int64 merge through
    # np.unique on the rows; both paths give the same series
    chi, _, points = _chi_and_points()
    packed = F.bracket(chi.series()).bracket(chi.series())
    monkeypatch.setattr(fourier, "_radix", lambda lo, hi, top: None)
    wide = F.bracket(chi.series()).bracket(chi.series())
    assert len(wide) == len(packed)
    np.testing.assert_array_equal(np.sort(wide.e.view([("", wide.e.dtype)] * wide.e.shape[1]), axis=0),
                                  np.sort(packed.e.view([("", packed.e.dtype)] * packed.e.shape[1]), axis=0))
    np.testing.assert_allclose(values(wide, points), values(packed, points), rtol=0, atol=1e-12)


def test_series_over_other_divisors_do_not_mix():
    # a series without divisors takes zero divisor columns, two over
    # different divisor sets do not combine
    chi, _, points = _chi_and_points()
    g = _over(F, chi.series().divisors)
    mixed = g + F
    assert mixed.divisors == g.divisors
    np.testing.assert_allclose(values(mixed, points), 2.0 * F(*points), rtol=0, atol=1e-15)
    for divisors in ((PolyField.constant(1.0),), (PolyField.constant(1.0), PolyField.constant(2.0))):
        other = _over(F, divisors)
        with pytest.raises(ValueError, match="different divisors"):
            g + other
        with pytest.raises(ValueError, match="different divisors"):
            other.bracket(chi.series())


def test_a_perturbation_adds_to_a_series_over_divisors(two_step_results):
    # f + f_bar_2, the second resonant correction being over chi1's divisors
    f = rd.get_entry("generic3").perturbation
    f_bar2 = two_step_results[1e-3].averaging_steps[1].f_bar
    assert f_bar2.divisors and not f.divisors
    rng = np.random.default_rng(31)
    w = two_step_results[1e-3].quarter_window
    points = tuple(rng.uniform(lo, hi, 200) for lo, hi in
                   ((0.0, 1.0), (0.0, 1.0), (w.i1_min, w.i1_max), (w.i2_min, w.i2_max)))
    for got, want in (((f + f_bar2)(*points), f(*points) + f_bar2(*points)),
                      ((f_bar2 - f)(*points), f_bar2(*points) - f(*points))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["generic3", "action-dependent"])
def test_table_of_the_first_remainder_matches_its_terms(one_step_results, case):
    # the table's value and four partials against the terms summed one by
    # one in complex arithmetic, relative to each row's sup on the points
    nf = one_step_results[1e-3] if case == "generic3" else rd.one_step_normal_form(_action_dependent_bundle(1e-3))
    series, _ = first_remainder_series(nf)
    w = nf.sample_window
    rng = np.random.default_rng(27)
    points = tuple(rng.uniform(lo, hi, 64) for lo, hi in
                   ((0.0, 1.0), (0.0, 1.0), (w.i1_min, w.i1_max), (w.i2_min, w.i2_max)))
    want = reference_rows(series, *points)
    got = series.table().evaluate(*points)
    for r in range(5):
        sup = np.max(np.abs(want[r]))
        assert sup > 0.0
        assert np.max(np.abs(got[r] - want[r])) <= 1e-13 * sup, r
