import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resodrift as rd
from resodrift.averaging import GeneratorChi
from resodrift import fourier
from resodrift.fourier import FourierPerturbation, canonical_mode
from resodrift.poly import PolyField
from resodrift.systems import ActionWindow, SystemBundle

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
        g_th = f.theta_gradient(th1, th2, I1, I2)
        g_I = f.action_gradient(th1, th2, I1, I2)
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


def test_partial_matches_gradient_components(rng):
    f = FourierPerturbation.from_terms([((2, 1), 0.4, -0.3), ((0, 1), 0.2, 0.0)])
    d_th1 = f.partial(d_theta1=1)
    th1, th2 = rng.uniform(0, 1, (2, 40))
    got = d_th1(th1, th2, 0.0, 0.0)
    want = f.theta_gradient(th1, th2, np.zeros(40), np.zeros(40))[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


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
    return np.concatenate(
        [np.asarray(f(*pts))[None], f.theta_gradient(*pts), f.action_gradient(*pts)]
    )


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
    chi = GeneratorChi(_GENERIC3, numerators, 5, _CHI_WINDOW)
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
    per_action = (5 if grad else 1) * (12 + 2 * table.K.shape[0]) + sum(table._W.shape)
    monkeypatch.setattr(fourier, "BLOCK_VALUES", table.K.shape[0] * 2 * 12 + 2 * per_action)
    # every block is a view of one buffer, so keep copies
    blocks = [rows.copy() for rows in table.outer_blocks(*angles, *actions, grad=grad)]
    assert [rows.shape for rows in blocks] == [(whole.shape[0], 2, 12)] * 5
    got = np.concatenate(blocks, axis=1)
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-12 * np.max(np.abs(whole)))
