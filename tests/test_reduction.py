import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resodrift as rd
from resodrift.errors import DomainError
from resodrift.poly import PolyField
from resodrift.reduction import (
    UnimodularMap,
    map_orbit,
    primitive_vector,
    reduce_system,
    unimodular_completion,
)
from resodrift.systems import IntegrableSystem, ResonanceData
from resodrift.torus import PhaseState, circle_delta


def test_primitive_vector():
    assert primitive_vector((2, 3)) == ((2, 3), 1)
    assert primitive_vector((4, 6)) == ((2, 3), 2)
    assert primitive_vector((0, 5)) == ((0, 1), 5)
    assert primitive_vector((-2, -2)) == ((-1, -1), 2)


def test_completion_frozen_cases():
    np.testing.assert_array_equal(unimodular_completion((2, 3)), [[1, 2], [1, 3]])
    np.testing.assert_array_equal(unimodular_completion((1, 1)), [[1, 1], [0, 1]])
    np.testing.assert_array_equal(unimodular_completion((0, 1)), [[1, 0], [0, 1]])
    np.testing.assert_array_equal(unimodular_completion((1, 0)), [[0, 1], [-1, 0]])


@settings(max_examples=200)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_completion_is_unimodular_with_k_as_second_column(k1, k2):
    if (k1, k2) == (0, 0) or math.gcd(abs(k1), abs(k2)) != 1:
        return
    M = unimodular_completion((k1, k2))
    assert M[0, 1] == k1 and M[1, 1] == k2
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    assert det == 1


def test_unimodular_map_inverse_is_exact():
    m = UnimodularMap(((1, 2), (1, 3)))
    assert m.det == 1
    np.testing.assert_array_equal(np.array(m.matrix) @ np.array(m.inverse), np.eye(2))
    assert m.relabel_mode((1, -1)) == (0, -1)  # transpose action on wave vectors


def test_unimodular_map_rejects_non_unimodular():
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 2)))


def test_moser_reduction_matches_catalog_twin():
    moser = rd.get_entry("moser")
    twin = rd.get_entry("reduced-moser")
    red = reduce_system(moser.system, moser.perturbation)
    np.testing.assert_array_equal(red.umap.matrix, [[1, 1], [0, 1]])
    assert red.umap.det == 1
    assert not red.orientation_flipped
    assert red.primitive_scale == 1
    assert red.system.R == twin.system.R == 2.0
    assert sorted(red.system.h.to_terms()) == sorted(twin.system.h.to_terms())
    assert red.system.resonance == twin.system.resonance
    assert red.perturbation.mode_keys == twin.perturbation.mode_keys == [(1, 0)]
    a, b = red.perturbation.coefficient((1, 0))
    aw, bw = twin.perturbation.coefficient((1, 0))
    assert abs(a(0, 0) - aw(0, 0)) < 1e-15
    assert abs(b(0, 0) - bw(0, 0)) < 1e-15


def test_reduction_checks_are_clean():
    moser = rd.get_entry("moser")
    red = reduce_system(moser.system, moser.perturbation)
    assert red.checks["segment_axis_residual"] <= 1e-12
    assert red.checks["min_transverse_frequency"] >= red.system.resonance.varpi - 1e-12
    rep = red.report()
    assert rep["determinant"] == 1
    assert rep["matrix"] == [[1, 1], [0, 1]]


def test_forward_backward_round_trip(rng, moser_reduction):
    red = moser_reduction
    th = rng.uniform(0, 1, (2, 64))
    I1 = rng.uniform(0.3, 1.7, 64)
    I2 = -I1 + rng.uniform(-0.2, 0.2, 64)  # near the resonance line
    fwd = red.forward_points(th[0], th[1], I1, I2)
    back = red.backward_points(*fwd)
    assert np.max(np.abs(np.asarray(back[2:]) - np.stack([I1, I2]))) < 1e-12
    assert np.max(np.abs(circle_delta(back[0], th[0]))) < 1e-12
    assert np.max(np.abs(circle_delta(back[1], th[1]))) < 1e-12


def test_hamiltonian_is_conjugated_not_changed(rng, moser_reduction):
    # h_tilde(I_tilde) must equal h(I): reduction only renames coordinates
    red = moser_reduction
    moser = rd.get_entry("moser")
    for _ in range(40):
        I1 = rng.uniform(0.3, 1.7)
        I2 = -I1 + rng.uniform(-0.3, 0.3)
        _, _, J1, J2 = red.forward_points(0.0, 0.0, I1, I2)
        assert abs(red.system.h(J1, J2) - moser.system.h(I1, I2)) < 1e-12


def test_perturbation_is_conjugated(rng, moser_reduction):
    red = moser_reduction
    moser = rd.get_entry("moser")
    th = rng.uniform(0, 1, (2, 50))
    I1 = rng.uniform(0.3, 1.7, 50)
    I2 = -I1 + rng.uniform(-0.2, 0.2, 50)
    fwd = red.forward_points(th[0], th[1], I1, I2)
    orig = moser.perturbation(th[0], th[1], I1, I2)
    mapped = red.perturbation(*fwd)
    np.testing.assert_allclose(mapped, orig, atol=1e-12)


def test_domain_radius_shrinks_by_row_sum():
    # moser: R = 4, T = 0, transpose-inverse row sums are 1 and 2 -> R_tilde = 2
    moser = rd.get_entry("moser")
    red = reduce_system(moser.system, moser.perturbation)
    assert red.system.R == 2.0
    assert red.translation == (0.0, 0.0)


def test_opposite_orientation_is_flipped_back():
    moser = rd.get_entry("moser")
    res = moser.system.resonance
    res_neg = ResonanceData(
        k=(-1, -1), a=-0.0, S=res.S, S_star=res.S_star, varpi=res.varpi
    )
    system = IntegrableSystem(moser.system.h, moser.system.R, res_neg)
    red = reduce_system(system, moser.perturbation)
    assert red.orientation_flipped
    twin = reduce_system(moser.system, moser.perturbation)
    np.testing.assert_array_equal(red.umap.matrix, twin.umap.matrix)
    assert sorted(red.system.h.to_terms()) == sorted(twin.system.h.to_terms())


def test_non_primitive_k_rescales_varpi():
    moser = rd.get_entry("moser")
    res = moser.system.resonance
    res2 = ResonanceData(
        k=(2, 2), a=0.0, S=res.S, S_star=res.S_star, varpi=res.varpi / 2
    )
    system = IntegrableSystem(moser.system.h, moser.system.R, res2)
    red = reduce_system(system, moser.perturbation)
    assert red.primitive_scale == 2
    np.testing.assert_array_equal(red.umap.matrix, [[1, 1], [0, 1]])
    assert abs(red.system.resonance.varpi - res.varpi) < 1e-15


def test_reduce_rejects_already_impossible_channel():
    # convex h never satisfies omega parallel to k along the segment
    h = PolyField.from_terms([(2, 0, 0.5), (0, 2, 0.5)])
    res = ResonanceData(
        k=(1, 1),
        a=0.0,
        S=((0.25, -0.25), (1.75, -1.75)),
        S_star=((0.5, -0.5), (1.5, -1.5)),
        varpi=0.5,
    )
    system = IntegrableSystem(h, 4.0, res)
    f = rd.get_entry("moser").perturbation
    with pytest.raises(DomainError):
        reduce_system(system, f)


def test_map_orbit_lands_on_true_moser_orbit(moser_reduction):
    red = moser_reduction
    bundle = rd.SystemBundle(red.system, red.perturbation, 1e-3)
    rec = rd.run_drift_experiment(bundle)
    mapped = map_orbit(red, rec.orbit, direction="backward")
    # the image is an orbit of the original saddle system: both conserved
    # quantities of the exact channel solution must hold along it
    v = mapped.actions[:, 0] + mapped.actions[:, 1]
    assert np.max(np.abs(v)) < 1e-9
    u = circle_delta(mapped.theta[:, 0], mapped.theta[:, 1])
    assert np.max(np.abs(u)) < 1e-9
    # energy is a conjugacy invariant, so the copied column stays consistent
    moser = rd.get_entry("moser")
    b_orig = rd.SystemBundle(moser.system, moser.perturbation, 1e-3)
    recomputed = b_orig.energy_of(
        np.column_stack([mapped.theta, mapped.actions])
    )
    np.testing.assert_allclose(recomputed, mapped.energy, atol=1e-12)


def test_state_level_maps_agree_with_point_maps(moser_reduction):
    red = moser_reduction
    s = PhaseState.make(0.12, 0.81, 0.9, -0.9)
    fwd = red.forward(s)
    arr = red.forward_points(0.12, 0.81, 0.9, -0.9)
    np.testing.assert_allclose(fwd.as_array(), [float(v) for v in arr], atol=1e-15)
    back = PhaseState.make(*(float(v) for v in red.backward_points(*fwd.as_array())))
    assert back.distance(s) < 1e-12


def test_forward_mapped_orbit_measures_the_working_subsegment(moser_reduction):
    # dist_channel of a forward-mapped orbit is measured against S*, as
    # run_orbit measures it on the reduced chart: I1 drifts from 0.3 to 0.2,
    # which ends 0.05 below S = [0.25, 1.75] and 0.3 below S* = [0.5, 1.5]
    red = moser_reduction
    moser = rd.get_entry("moser")
    y0 = np.array([0.0, 0.0, 0.3, -0.3])
    rec = rd.run_orbit(rd.SystemBundle(moser.system, moser.perturbation, 1e-3), y0, 100.0)
    mapped = map_orbit(red, rec, direction="forward")
    start = np.array([float(v) for v in red.forward_points(*y0)])
    direct = rd.run_orbit(rd.SystemBundle(red.system, red.perturbation, 1e-3), start, 100.0)
    np.testing.assert_array_equal(mapped.t, direct.t)
    assert np.max(np.abs(mapped.dist_channel - direct.dist_channel)) < 1e-9
    assert np.max(mapped.dist_channel) == pytest.approx(0.3, abs=1e-9)
