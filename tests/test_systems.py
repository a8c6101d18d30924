import numpy as np
import pytest

import resodrift as rd
from resodrift.errors import DomainError, UsageError
from resodrift.fourier import FourierPerturbation
from resodrift.poly import PolyField
from resodrift.systems import (
    ActionWindow,
    IntegrableSystem,
    ResonanceData,
    SystemBundle,
    load_system,
    star_window,
    system_to_dict,
    verify_channel_assumptions,
)


def test_catalog_channel_intervals():
    res = rd.get_entry("reduced-moser").system.resonance
    assert res.is_reduced
    assert res.s1_interval() == (0.25, 1.75)
    assert res.s1_interval(star=True) == (0.5, 1.5)
    res = rd.get_entry("product").system.resonance
    assert res.s1_interval() == (0.75, 2.25)
    assert res.s1_interval(star=True) == (1.0, 2.0)


def test_segment_points_hit_endpoints():
    res = rd.get_entry("moser").system.resonance
    pts = res.segment_points(5)
    np.testing.assert_allclose(pts[0], res.S[0])
    np.testing.assert_allclose(pts[-1], res.S[1])
    # every sample stays on the resonance line k.I + a = 0
    k = np.array(res.k, dtype=float)
    np.testing.assert_allclose(pts @ k + res.a, 0.0, atol=1e-12)


def test_resonance_rejects_points_off_the_line():
    with pytest.raises(ValueError):
        ResonanceData(
            k=(1, 1),
            a=0.0,
            S=((0.25, -0.25), (1.75, -1.70)),
            S_star=((0.5, -0.5), (1.5, -1.5)),
            varpi=0.5,
        )


def test_resonance_rejects_star_outside_segment():
    with pytest.raises(ValueError):
        ResonanceData(
            k=(0, 1),
            a=0.0,
            S=((0.5, 0.0), (1.5, 0.0)),
            S_star=((0.25, 0.0), (1.75, 0.0)),
            varpi=0.5,
        )


def test_line_direction_is_primitive():
    res = ResonanceData(
        k=(2, 4),
        a=0.0,
        S=((2.0, -1.0), (-2.0, 1.0)),
        S_star=((1.0, -0.5), (-1.0, 0.5)),
        varpi=0.5,
    )
    assert res.line_direction == (2, -1)


def test_action_window_grid_and_contains():
    w = ActionWindow(0.5, 1.5, -0.1, 0.1)
    I1, I2 = w.grid(9, 5)
    assert I1.shape == (9,) and I2.shape == (5,)
    assert I1[0] == 0.5 and I1[-1] == 1.5
    I1c, _ = w.grid(9, 5, chebyshev_i1=True)
    assert np.all(np.diff(I1c) > 0)
    assert abs(I1c[0] - 0.5) < 1e-12 and abs(I1c[-1] - 1.5) < 1e-12
    # Chebyshev nodes cluster toward the endpoints
    assert I1c[1] - I1c[0] < I1[1] - I1[0]
    assert w.contains(1.0, 0.0)
    assert not w.contains(1.6, 0.0)
    assert w.contains(1.6, 0.0, margin=0.2)
    assert w.sup_radius == 1.5


def test_star_window_geometry():
    res = rd.get_entry("generic3").system.resonance
    w = star_window(res, 0.01)
    assert w == ActionWindow(0.49, 1.51, -0.01, 0.01)


def test_omega_is_gradient_of_h(rng):
    system = rd.get_entry("generic3").system
    h = 1e-6
    for _ in range(20):
        I1, I2 = rng.uniform(-1, 1, 2)
        om = system.omega(I1, I2)
        fd1 = (system.h(I1 + h, I2) - system.h(I1 - h, I2)) / (2 * h)
        fd2 = (system.h(I1, I2 + h) - system.h(I1, I2 - h)) / (2 * h)
        assert abs(om[0] - fd1) < 1e-8
        assert abs(om[1] - fd2) < 1e-8


def test_omega_broadcasts_its_actions():
    # tensor-grid axes give the same bits as the meshgrid they expand to
    system = rd.get_entry("generic3").system
    I1 = np.linspace(0.5, 1.5, 7)
    I2 = np.linspace(-0.1, 0.1, 3)
    A1, A2 = np.meshgrid(I1, I2, indexing="ij")
    om = system.omega(I1[:, None], I2[None, :])
    assert om.shape == (2, 7, 3)
    assert np.array_equal(om, system.omega(A1, A2))


def test_bundle_epsilon_validation():
    entry = rd.get_entry("moser")
    with pytest.raises(ValueError):
        SystemBundle(entry.system, entry.perturbation, -0.1)
    with pytest.raises(ValueError):
        SystemBundle(entry.system, entry.perturbation, 1.0)
    b = SystemBundle(entry.system, entry.perturbation, 0.0)
    assert b.epsilon == 0.0


def test_channel_assumptions_hold_on_catalog():
    for name in rd.catalog_names():
        report = verify_channel_assumptions(rd.get_entry(name).system)
        assert report.passed, name
        assert report.max_abs_omega1 <= 1e-9
        assert report.min_omega2 >= report.varpi


def test_channel_assumptions_fail_for_convex_h():
    # h = (I1^2 + I2^2)/2 is convex: omega is radial, so omega1 cannot vanish
    # along the segment I2 = 0 away from the origin.
    h = PolyField.from_terms([(2, 0, 0.5), (0, 2, 0.5)])
    res = ResonanceData(
        k=(0, 1),
        a=0.0,
        S=((0.25, 0.0), (1.75, 0.0)),
        S_star=((0.5, 0.0), (1.5, 0.0)),
        varpi=0.5,
    )
    system = IntegrableSystem(h, 4.0, res)
    report = verify_channel_assumptions(system)
    assert not report.passed
    assert report.max_abs_omega1 > 0.2


def test_json_round_trip_preserves_system(rng):
    entry = rd.get_entry("generic3")
    data = system_to_dict(entry.system, entry.perturbation)
    system, f = load_system(data)
    assert system.h.to_terms() == entry.system.h.to_terms()
    assert system.R == entry.system.R
    assert system.resonance == entry.system.resonance
    th = rng.uniform(0, 1, (2, 30))
    I = rng.uniform(-1, 1, (2, 30))
    np.testing.assert_array_equal(
        f(th[0], th[1], I[0], I[1]), entry.perturbation(th[0], th[1], I[0], I[1])
    )


def test_load_system_rejects_unknown_keys():
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    data["extra"] = 1
    with pytest.raises(UsageError):
        load_system(data)


def test_load_system_rejects_unknown_resonance_keys():
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    data["resonance"]["slope"] = 2.0
    with pytest.raises(UsageError):
        load_system(data)


def test_load_system_reports_missing_fields():
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    del data["R"]
    with pytest.raises(UsageError, match="R"):
        load_system(data)


def test_domain_excludes_channel_outside_R():
    res = ResonanceData(
        k=(0, 1),
        a=0.0,
        S=((0.0, 0.0), (3.0, 0.0)),
        S_star=((1.0, 0.0), (2.0, 0.0)),
        varpi=0.5,
    )
    h = PolyField.from_terms([(1, 1, 1.0)])
    with pytest.raises(DomainError):
        IntegrableSystem(h, 2.0, res)
