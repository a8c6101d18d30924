import tracemalloc

import numpy as np
import pytest

import resodrift as rd
from resodrift.errors import DomainError, UsageError
from resodrift.fourier import BLOCK_VALUES, FourierPerturbation
from resodrift.poly import PolyField
from resodrift.systems import (
    MAX_WAVE,
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


# Malformed system definitions: each must raise UsageError, not another
# exception, a silent truncation or, for the degree, an allocation as large
# as the degree.  A constructor's ValueError or DomainError on file data is
# a UsageError too.
MALFORMED = {
    "k not a list": (("resonance", "k"), 5),
    "k of one entry": (("resonance", "k"), [1]),
    "one-point S": (("resonance", "S"), [[0.25, -0.25]]),
    "3-D endpoint": (("resonance", "Sstar"), [[0.5, -0.5, 0.0], [1.5, -1.5]]),
    "mode k of one entry": (("modes", 0, "k"), [1]),
    "fractional mode k": (("modes", 0, "k"), [1.5, -1]),
    "NaN R": (("R",), float("nan")),
    "NaN varpi": (("resonance", "varpi"), float("nan")),
    "infinite a": (("resonance", "a"), float("inf")),
    "text R": (("R",), "4"),
    "text varpi": (("resonance", "varpi"), "half"),
    "text coefficient": (("h", 0, 2), "0.5"),
    "degree 10,000": (("h", 0, 0), 10_000),
    "int beyond the float range": (("modes", 0, "k"), [10**400, 1]),
    "mode k beyond int64": (("modes", 0, "k"), [1e19, -1e19]),
    "resonance k above MAX_WAVE": (("resonance", "k"), [MAX_WAVE + 1, 1]),
    # well-formed values that break a constructor's rule
    "negative R": (("R",), -1),
    "zero varpi": (("resonance", "varpi"), 0),
    "zero resonance k": (("resonance", "k"), [0, 0]),
    "S endpoint off the line": (("resonance", "S"), [[0.25, 0.25], [1.75, -1.75]]),
    "S* outside S": (("resonance", "Sstar"), [[0.1, -0.1], [1.5, -1.5]]),
    "channel outside B_R": (("R",), 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_system_rejects_malformed_definitions(case):
    entry = rd.get_entry("moser")
    data = system_to_dict(entry.system, entry.perturbation)
    path, value = MALFORMED[case]
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(UsageError):
        load_system(data)


def test_constructors_reject_nan_radius_and_floor():
    entry = rd.get_entry("reduced-moser")
    res = entry.system.resonance
    with pytest.raises(ValueError, match="domain radius"):
        IntegrableSystem(entry.system.h, float("nan"), res)
    with pytest.raises(ValueError, match="varpi"):
        ResonanceData(k=res.k, a=res.a, S=res.S, S_star=res.S_star, varpi=float("nan"))


def test_hamiltonian_memory_is_its_result_and_two_blocks():
    # H is one series evaluated in blocks: besides its result, a call holds
    # at most two blocks of BLOCK_VALUES values
    bundle = rd.make_bundle("generic3", 1e-3)
    points = np.random.default_rng(3).uniform(0.0, 1.0, (4, 10**6))
    bundle.hamiltonian(*points[:, :10])
    tracemalloc.start()
    try:
        value = bundle.hamiltonian(*points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= value.nbytes + 2 * BLOCK_VALUES * 8


def test_point_clouds_never_reach_the_polynomial_evaluator(monkeypatch, one_step_results):
    # h is the (0, 0) mode of H's series and of the normal form's, so only
    # ModeTable evaluates the point arrays
    nf = one_step_results[1e-2]
    bundle = nf.bundle
    calls = []
    original = PolyField.__call__

    def spy(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(PolyField, "__call__", spy)
    w = nf.sample_window
    points = np.random.default_rng(5).uniform(0.0, 1.0, (4, 50))
    points[2] = w.i1_min + (w.i1_max - w.i1_min) * points[2]
    points[3] = w.i2_min + (w.i2_max - w.i2_min) * points[3]
    bundle.hamiltonian(*points)
    bundle.energy_of(points.T)
    bundle.vector_field(*points)
    nf.remainder(*points)
    assert calls == []
