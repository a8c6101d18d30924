import tracemalloc

import numpy as np
import pytest

import resodrift as rd
from resodrift import averaging, norms
from resodrift.averaging import solve_homological
from resodrift.fourier import BLOCK_VALUES, FourierPerturbation
from resodrift.norms import estimate_cj_norm
from resodrift.poly import PolyField
from resodrift.systems import ActionWindow, star_window

from c1_reference import reference_c1_peaks

TWO_PI = 2.0 * np.pi
WINDOW = ActionWindow(0.5, 1.5, -0.1, 0.1)
FIRST_ROWS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_c0_norm_of_single_mode_is_amplitude():
    # |a cos + b sin| peaks at hypot(a, b)
    f = FourierPerturbation.from_terms([((1, 0), 0.3, -0.4)])
    rep = estimate_cj_norm(f, 0, WINDOW)
    assert abs(rep.value - 0.5) < 1e-3
    assert rep.order == 0
    assert rep.per_index[(0, 0, 0, 0)] == rep.value


def test_c1_norm_of_normalized_sine_is_one():
    # f = sin(2 pi theta1) / (2 pi): the theta1 derivative has sup exactly 1
    f = FourierPerturbation.from_terms([((1, 0), 0.0, 1.0 / TWO_PI)])
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert abs(rep.value - 1.0) < 1e-12
    assert abs(rep.per_index[(1, 0, 0, 0)] - 1.0) < 1e-12
    assert rep.per_index[(0, 0, 1, 0)] == 0.0


def test_action_dependent_coefficient_contributes_gradient():
    # f = I1 cos(2 pi theta2): dI1 derivative has sup 1, dtheta2 sup 2 pi I1max
    poly = PolyField.from_terms([(1, 0, 1.0)])
    f = FourierPerturbation.from_terms([((0, 1), poly, 0.0)])
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert abs(rep.per_index[(0, 0, 1, 0)] - 1.0) < 1e-12
    assert abs(rep.per_index[(0, 1, 0, 0)] - TWO_PI * 1.5) < 1e-9
    assert abs(rep.value - TWO_PI * 1.5) < 1e-9


def _action_dependent_series():
    a = PolyField.from_terms([(0, 0, 0.3), (1, 0, -0.7), (1, 1, 0.5), (0, 2, 1.2)])
    b = PolyField.from_terms([(2, 0, 0.4), (0, 1, -0.9), (3, 0, 0.1)])
    return FourierPerturbation.from_terms([((1, -2), a, b), ((0, 1), b, 0.2), ((2, 1), 0.3, a)])


def test_action_dependent_series_matches_full_meshgrid():
    # the streamed tensor grid against the same grid as a pointwise 4-D
    # meshgrid
    f = _action_dependent_series()
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert rep.grid_shape == (norms.C1_ANGLES, norms.C1_ANGLES, *norms.C1_ACTIONS)
    assert list(rep.per_index) == FIRST_ROWS
    want = reference_c1_peaks(f.table(), WINDOW)
    for got, peak in zip(rep.per_index.values(), want):
        assert abs(got - peak) <= 1e-12 * peak
    assert rep.value == max(rep.per_index.values())


def test_non_fourier_field_is_rejected():
    f = FourierPerturbation.from_terms([((1, 1), 0.2, -0.1)])
    with pytest.raises(TypeError, match="FourierPerturbation"):
        estimate_cj_norm(lambda t1, t2, i1, i2: f(t1, t2, i1, i2), 1, WINDOW)


def test_rejects_orders_other_than_0_and_1():
    f = FourierPerturbation.from_terms([((1, 0), 1.0, 0.0)])
    for j in (-1, 2, 5):
        with pytest.raises(ValueError, match="0 or 1"):
            estimate_cj_norm(f, j, WINDOW)


def test_norm_is_monotone_in_order():
    entry = rd.get_entry("generic3")
    c0, c1 = (estimate_cj_norm(entry.perturbation, j, WINDOW) for j in (0, 1))
    assert c0.value <= c1.value
    assert c0.per_index == {(0, 0, 0, 0): c1.per_index[(0, 0, 0, 0)]}


# -- one measured C^1 norm ------------------------------------------------------


@pytest.mark.parametrize("name", rd.catalog_names())
def test_per_index_is_exact_for_catalog_entries(name):
    f = rd.get_entry(name).perturbation
    assert f.is_action_independent
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert list(rep.per_index) == FIRST_ROWS
    want = reference_c1_peaks(f.table(), WINDOW)
    assert rep.value == max(want)
    # the tensor and pointwise paths may round a component an ulp apart
    for got, peak in zip(rep.per_index.values(), want):
        assert abs(got - peak) <= 1e-12 * peak
    # f does not depend on the actions
    assert rep.per_index[(0, 0, 1, 0)] == rep.per_index[(0, 0, 0, 1)] == 0.0


def test_zero_series_is_not_evaluated(monkeypatch):
    def fail(self):
        raise AssertionError("a zero series needs no table")

    monkeypatch.setattr(FourierPerturbation, "table", fail)
    rep = estimate_cj_norm(FourierPerturbation.zero(), 1, WINDOW)
    assert rep.value == 0.0
    assert rep.per_index == dict.fromkeys(FIRST_ROWS, 0.0)


def test_both_c1_norms_make_one_c1_peaks_call(monkeypatch):
    # |f|_C1 of the optimality audit and |chi|_C1 of the averaging step are
    # one measurement
    calls = []
    original = norms.c1_peaks

    def spy(table, window):
        calls.append(window)
        return original(table, window)

    monkeypatch.setattr(norms, "c1_peaks", spy)
    monkeypatch.setattr(averaging, "c1_peaks", spy)
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.005)
    estimate_cj_norm(entry.perturbation, 1, window)
    assert calls == [window]
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    assert chi.c1_norm() == max(original(chi._table, window))
    assert calls == [window, window]


# Twice one I1 slice of one derivative on a 128^2 x 33^2 grid (33 x 128^2
# values of 8 bytes): about one block of BLOCK_VALUES values, the most that
# ModeTable.outer_blocks holds at once.
ONE_SLICE_BOUND = 2 * 33 * 128**2 * 8


def test_cj_norm_memory_is_bounded_by_one_action_slice():
    assert BLOCK_VALUES * 8 <= ONE_SLICE_BOUND
    f = rd.get_entry("generic3").perturbation
    estimate_cj_norm(f, 1, WINDOW)  # builds and caches the table
    tracemalloc.start()
    try:
        estimate_cj_norm(f, 1, WINDOW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ONE_SLICE_BOUND
