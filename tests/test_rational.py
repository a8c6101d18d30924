import numpy as np
import pytest

import resodrift as rd
from resodrift import rational
from resodrift.averaging import first_remainder_series, solve_homological
from resodrift.fourier import FourierPerturbation
from resodrift.poly import PolyField
from resodrift.rational import RationalSeries
from resodrift.systems import star_window

from series_reference import reference_rows
from test_averaging import _action_dependent_bundle

# an action-dependent series with a mode (2, 2) that shares the divisor of (1, 1)
F = FourierPerturbation.from_terms([
    ((1, 0), 0.3, PolyField.from_terms([(0, 0, 0.1), (1, 0, 0.2)])),
    ((0, 1), PolyField.from_terms([(0, 0, 0.2), (1, 0, 0.1)]), 0.05),
    ((1, 1), 0.0, PolyField.from_terms([(0, 1, 0.5), (1, 0, 0.05)])),
    ((2, 2), PolyField.from_terms([(2, 0, 0.07)]), -0.02),
])


def values(series, points):
    return series.table().values(*points)


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
    series = RationalSeries.from_fourier(F, chi.series().divisors)
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
    series = RationalSeries.from_fourier(F, chi.series().divisors).bracket(chi.series())
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
    series = RationalSeries.from_fourier(F, chi.series().divisors).bracket(chi.series())
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
    g = RationalSeries.from_fourier(F, chi.series().divisors)
    packed = g.bracket(chi.series()).bracket(chi.series())
    monkeypatch.setattr(rational, "_radix", lambda lo, hi, top: None)
    g = RationalSeries.from_fourier(F, chi.series().divisors)
    wide = g.bracket(chi.series()).bracket(chi.series())
    assert len(wide) == len(packed)
    np.testing.assert_array_equal(np.sort(wide.e.view([("", wide.e.dtype)] * wide.e.shape[1]), axis=0),
                                  np.sort(packed.e.view([("", packed.e.dtype)] * packed.e.shape[1]), axis=0))
    np.testing.assert_allclose(values(wide, points), values(packed, points), rtol=0, atol=1e-12)


def test_series_over_other_divisors_do_not_mix():
    chi, _, _ = _chi_and_points()
    g = RationalSeries.from_fourier(F, chi.series().divisors)
    with pytest.raises(ValueError, match="different divisors"):
        g + RationalSeries.from_fourier(F, ())


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
