import tracemalloc

import numpy as np
import pytest

import resodrift as rd
from resodrift.fourier import BLOCK_VALUES, FourierPerturbation
from resodrift.norms import _multi_indices, estimate_cj_norm
from resodrift.poly import PolyField
from resodrift.systems import ActionWindow

TWO_PI = 2.0 * np.pi
WINDOW = ActionWindow(0.5, 1.5, -0.1, 0.1)


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


def test_c2_norm_picks_up_second_angle_derivative():
    f = FourierPerturbation.from_terms([((1, 0), 0.0, 1.0 / TWO_PI)])
    rep = estimate_cj_norm(f, 2, WINDOW)
    assert abs(rep.value - TWO_PI) < 1e-10


def test_action_dependent_coefficient_contributes_gradient():
    # f = I1 cos(2 pi theta2): dI1 derivative has sup 1, dtheta2 sup 2 pi I1max
    poly = PolyField.from_terms([(1, 0, 1.0)])
    f = FourierPerturbation.from_terms([((0, 1), poly, 0.0)])
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert abs(rep.per_index[(0, 0, 1, 0)] - 1.0) < 1e-12
    assert abs(rep.per_index[(0, 1, 0, 0)] - TWO_PI * 1.5) < 1e-9
    assert abs(rep.value - TWO_PI * 1.5) < 1e-9


def test_action_dependent_series_matches_full_meshgrid():
    # the series path works one action slice at a time; the full 4-D grid
    # evaluated pointwise must give the same sups for every derivative
    a = PolyField.from_terms([(0, 0, 0.3), (1, 0, -0.7), (1, 1, 0.5), (0, 2, 1.2)])
    b = PolyField.from_terms([(2, 0, 0.4), (0, 1, -0.9), (3, 0, 0.1)])
    f = FourierPerturbation.from_terms([((1, -2), a, b), ((0, 1), b, 0.2), ((2, 1), 0.3, a)])
    n_angle, n_action = 24, 7
    rep = estimate_cj_norm(f, 2, WINDOW, n_angle=n_angle, n_action=n_action)
    assert rep.grid_shape == (n_angle, n_angle, n_action, n_action)
    th = np.linspace(0.0, 1.0, n_angle, endpoint=False)
    I1 = np.linspace(WINDOW.i1_min, WINDOW.i1_max, n_action)
    I2 = np.linspace(WINDOW.i2_min, WINDOW.i2_max, n_action)
    T1, T2, A1, A2 = np.meshgrid(th, th, I1, I2, indexing="ij")
    assert len(rep.per_index) == 15
    for alpha, got in rep.per_index.items():
        want = float(np.max(np.abs(f.partial(*alpha)(T1, T2, A1, A2))))
        assert abs(got - want) <= 1e-12 * (1.0 + want)
    assert rep.value == max(rep.per_index.values())


def test_non_fourier_field_is_rejected():
    f = FourierPerturbation.from_terms([((1, 1), 0.2, -0.1)])
    with pytest.raises(TypeError, match="FourierPerturbation"):
        estimate_cj_norm(lambda t1, t2, i1, i2: f(t1, t2, i1, i2), 1, WINDOW, n_angle=64, n_action=9)


def test_rejects_bad_order_and_coarse_grids():
    f = FourierPerturbation.from_terms([((1, 0), 1.0, 0.0)])
    with pytest.raises(ValueError):
        estimate_cj_norm(f, 5, WINDOW)
    with pytest.raises(ValueError):
        estimate_cj_norm(f, 2, WINDOW, n_angle=3, n_action=3)


def test_norm_is_monotone_in_order():
    entry = rd.get_entry("generic3")
    reps = [estimate_cj_norm(entry.perturbation, j, WINDOW, n_angle=32, n_action=5) for j in range(3)]
    assert reps[0].value <= reps[1].value <= reps[2].value


# -- the tensor-grid reduction against the per-partial loop it replaced --------


def reference_per_index(f, j, window, n_angle=128, n_action=33):
    """per_index as estimate_cj_norm computed it before tensor-grid evaluation.

    Every multi-index goes through its own partial series, one I1 slice of
    the action grid at a time, with the angle table rebuilt for each slice.
    """
    th = np.linspace(0.0, 1.0, n_angle, endpoint=False)
    I1 = np.linspace(window.i1_min, window.i1_max, n_action)
    I2 = np.linspace(window.i2_min, window.i2_max, n_action)
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    return {
        alpha: max(float(np.max(np.abs(f.partial(*alpha).table().outer(T1, T2, a1, I2)))) for a1 in I1)
        for alpha in _multi_indices(j)
    }


@pytest.mark.parametrize("name", rd.catalog_names())
def test_per_index_is_exact_for_catalog_entries(name):
    f = rd.get_entry(name).perturbation
    assert f.is_action_independent
    rep = estimate_cj_norm(f, 1, WINDOW)
    assert rep.per_index == reference_per_index(f, 1, WINDOW)
    assert list(rep.per_index) == _multi_indices(1)


@pytest.mark.parametrize("j", [1, 2])
def test_per_index_matches_the_partial_loop_for_action_dependent_series(j):
    a = PolyField.from_terms([(0, 0, 0.3), (1, 0, -0.7), (1, 1, 0.5), (0, 2, 1.2)])
    b = PolyField.from_terms([(2, 0, 0.4), (0, 1, -0.9), (3, 0, 0.1)])
    f = FourierPerturbation.from_terms([((1, -2), a, b), ((0, 1), b, 0.2), ((2, 1), 0.3, a)])
    rep = estimate_cj_norm(f, j, WINDOW, n_angle=64, n_action=17)
    want = reference_per_index(f, j, WINDOW, n_angle=64, n_action=17)
    assert list(rep.per_index) == list(want)
    for alpha, got in rep.per_index.items():
        assert abs(got - want[alpha]) <= 1e-13 * want[alpha]


# Twice one I1 slice of one derivative on the default grid (33 x 128^2 values
# of 8 bytes): about one block of BLOCK_VALUES values, far below the
# 33^2 x 128^2 values of the whole grid.
ONE_SLICE_BOUND = 2 * 33 * 128**2 * 8


def test_cj_norm_memory_is_bounded_by_one_action_slice():
    assert BLOCK_VALUES * 8 <= ONE_SLICE_BOUND
    f = rd.get_entry("generic3").perturbation
    estimate_cj_norm(f, 1, WINDOW)  # builds and caches the table
    tracemalloc.start()
    try:
        estimate_cj_norm(f, 1, WINDOW, n_angle=128, n_action=33)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ONE_SLICE_BOUND
