import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval2d

import resodrift as rd
from resodrift import averaging, fourier
from resodrift.averaging import (
    GeneratorChi,
    average_over_theta2,
    choose_cutoff,
    genericity_check,
    resonant_average_along_k,
    solve_homological,
)
from resodrift.errors import FlowEscapeError, SmallDivisorError, WindowFitError
from resodrift.fourier import FourierPerturbation
from resodrift.poly import PolyField
from resodrift.systems import star_window
from resodrift.torus import wrap

from c1_reference import reference_c1_peaks

TWO_PI = 2.0 * np.pi


# -- averaging projections ---------------------------------------------------


def test_average_over_theta2_matches_quadrature(rng):
    f = rd.get_entry("generic3").perturbation
    fbar = average_over_theta2(f)
    # 512-point trapezoid rule is exact for a trig polynomial of low order
    th2 = np.linspace(0.0, 1.0, 512, endpoint=False)
    for _ in range(20):
        th1 = rng.uniform()
        I1, I2 = rng.uniform(-0.5, 0.5, 2)
        quad = np.mean(f(th1, th2, I1, I2))
        assert abs(fbar(th1, 0.123, I1, I2) - quad) < 1e-13
        # and the average cannot depend on theta2
        assert abs(fbar(th1, 0.9, I1, I2) - fbar(th1, 0.1, I1, I2)) < 1e-15


def test_average_is_idempotent_exactly():
    f = rd.get_entry("generic3").perturbation
    fbar = average_over_theta2(f)
    fbarbar = average_over_theta2(fbar)
    assert fbar.modes == fbarbar.modes


def test_resonant_average_matches_line_quadrature(rng):
    # average along the k-flow, checked against direct quadrature over the leaf
    moser = rd.get_entry("moser")
    k = moser.system.resonance.k
    I_star = (1.0, -1.0)
    series = resonant_average_along_k(moser.perturbation, k, I_star)
    n = 512
    s = np.linspace(0.0, 1.0, n, endpoint=False)
    # leaf coordinate: first component of M^-1 theta for the chart matrix
    red = rd.reduce_system(moser.system, moser.perturbation)
    Minv = red.umap.inverse.astype(float)
    for _ in range(15):
        th0 = rng.uniform(0, 1, 2)
        vals = moser.perturbation(
            wrap(th0[0] + s * k[0]), wrap(th0[1] + s * k[1]), I_star[0], I_star[1]
        )
        quad = np.mean(vals)
        phi = Minv[0, 0] * th0[0] + Minv[0, 1] * th0[1]
        assert abs(series(phi, 0.0, 0.0, 0.0) - quad) < 1e-13


# -- genericity --------------------------------------------------------------


def test_genericity_frozen_values_reduced_moser():
    entry = rd.get_entry("reduced-moser")
    rep = genericity_check(entry.perturbation, entry.system)
    assert rep.passed
    assert rep.lam == pytest.approx(0.9, abs=1e-15)
    assert rep.theta1_star == 0.0
    assert rep.i1_star == 1.0  # midpoint of S1* for an action-independent f
    assert rep.delta_star == 0.5
    assert rep.derivative_at_star == pytest.approx(1.0, abs=1e-12)
    assert rep.I_star == (1.0, 0.0)


def test_genericity_agrees_across_charts():
    # lambda computed from the raw moser system and from its reduced twin
    moser = rd.get_entry("moser")
    twin = rd.get_entry("reduced-moser")
    series = resonant_average_along_k(
        moser.perturbation, moser.system.resonance.k, (1.0, -1.0)
    )
    phi = np.linspace(0.0, 1.0, 256, endpoint=False)
    lam_raw = np.max(np.abs(series.table().evaluate(phi, 0.0, 0.0, 0.0)[1]))
    rep = genericity_check(twin.perturbation, twin.system)
    assert abs(0.9 * lam_raw - rep.lam) < 1e-6


def test_genericity_fails_for_flat_average():
    # all modes have k2 != 0, so the resonant average is constant in theta1
    f = FourierPerturbation.from_terms([((1, 1), 0.3, 0.0), ((0, 1), 0.0, 0.5)])
    system = rd.get_entry("reduced-moser").system
    rep = genericity_check(f, system)
    assert not rep.passed
    assert rep.lam == 0.0


def test_genericity_scans_interior_points_for_action_dependent_f():
    poly = PolyField.from_terms([(1, 0, 1.0)])
    f = FourierPerturbation.from_terms([((1, 0), 0.0, poly)])
    system = rd.get_entry("reduced-moser").system
    rep = genericity_check(f, system)
    assert rep.passed
    # |d f / d theta1| = 2 pi I1 |cos|, largest at the rightmost interior node
    # of S1* = [0.5, 1.5]: the scan keeps strictly to the open segment
    assert rep.n_interior == 31
    assert rep.i1_star == pytest.approx(np.linspace(0.5, 1.5, 33)[-2], abs=1e-14)
    assert rep.lam == pytest.approx(0.9 * TWO_PI * rep.i1_star, rel=1e-12)
    assert rep.delta_star == pytest.approx(1.5 - rep.i1_star, abs=1e-14)


# -- cutoff and generator ----------------------------------------------------


def test_choose_cutoff_frozen_and_floor():
    f = rd.get_entry("generic3").perturbation
    assert choose_cutoff(1e-3, 2.0113351756469653, 0.5, f) == 125
    # at large epsilon the truncation floor is the largest stored mode
    assert choose_cutoff(0.5, 2.0, 0.5, f) == f.max_mode


def test_generator_closed_form_on_generic3(rng):
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.01)
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    assert sorted(chi.mode_keys) == [(0, 1), (1, 1)]
    for _ in range(30):
        th1, th2 = rng.uniform(0, 1, 2)
        I1 = rng.uniform(0.5, 1.5)
        I2 = rng.uniform(-0.01, 0.01)
        # independent derivation: the (0,1) mode divides by 2 pi omega2 and
        # the (1,1) mode by 2 pi (omega1 + omega2), with omega = (I2, I1 - I2)
        expected = 0.2 * np.sin(TWO_PI * th2) / (TWO_PI * (I1 - I2)) + 0.3 * np.sin(
            TWO_PI * (th1 + th2)
        ) / (TWO_PI * I1)
        assert abs(chi.evaluate(th1, th2, I1, I2) - expected) < 1e-13


def test_generator_keeps_its_smallest_divisor():
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.01)
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    # direct recomputation on the same window grid: |k.omega| over every mode
    A1, A2 = np.meshgrid(*window.grid(65, 17), indexing="ij")
    om = entry.system.omega(A1, A2)
    direct = min(np.min(np.abs(k1 * om[0] + k2 * om[1])) for k1, k2 in chi.mode_keys)
    assert chi.min_divisor == pytest.approx(direct, rel=1e-13)
    assert chi.min_divisor >= chi.varpi / 2
    assert GeneratorChi(entry.system, {}, 8, window).min_divisor is None


def test_generator_gradients_match_finite_differences(rng):
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.01)
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    h = 1e-6
    for _ in range(15):
        th1, th2 = rng.uniform(0, 1, 2)
        I1 = rng.uniform(0.6, 1.4)
        I2 = rng.uniform(-0.005, 0.005)
        g_th, g_I = chi.gradients(th1, th2, I1, I2)
        fd = [
            (chi.evaluate(th1 + h, th2, I1, I2) - chi.evaluate(th1 - h, th2, I1, I2)) / (2 * h),
            (chi.evaluate(th1, th2 + h, I1, I2) - chi.evaluate(th1, th2 - h, I1, I2)) / (2 * h),
            (chi.evaluate(th1, th2, I1 + h, I2) - chi.evaluate(th1, th2, I1 - h, I2)) / (2 * h),
            (chi.evaluate(th1, th2, I1, I2 + h) - chi.evaluate(th1, th2, I1, I2 - h)) / (2 * h),
        ]
        assert abs(g_th[0] - fd[0]) < 1e-6
        assert abs(g_th[1] - fd[1]) < 1e-6
        assert abs(g_I[0] - fd[2]) < 1e-6
        assert abs(g_I[1] - fd[3]) < 1e-6


def test_homological_identity_pointwise(rng):
    # omega . grad_theta chi = f_osc (so {h, chi} cancels the oscillating
    # part of f), with the gradient taken two ways
    entry = rd.get_entry("generic3")
    system = entry.system
    window = star_window(system.resonance, 0.01)
    chi = solve_homological(system, entry.perturbation, 8, window)
    f_osc = entry.perturbation.filter(lambda k: k[1] != 0)
    h = 1e-6
    for _ in range(25):
        th1, th2 = rng.uniform(0, 1, 2)
        I1 = rng.uniform(0.5, 1.5)
        I2 = rng.uniform(-0.01, 0.01)
        om = system.omega(I1, I2)
        g_th, _ = chi.gradients(th1, th2, I1, I2)
        resid = om[0] * g_th[0] + om[1] * g_th[1] - f_osc(th1, th2, I1, I2)
        assert abs(resid) < 1e-12
        # same identity through finite differences of chi alone
        d1 = (chi.evaluate(th1 + h, th2, I1, I2) - chi.evaluate(th1 - h, th2, I1, I2)) / (2 * h)
        d2 = (chi.evaluate(th1, th2 + h, I1, I2) - chi.evaluate(th1, th2 - h, I1, I2)) / (2 * h)
        resid_fd = om[0] * d1 + om[1] * d2 - f_osc(th1, th2, I1, I2)
        assert abs(resid_fd) < 1e-5


def test_generator_rejects_resonant_modes():
    entry = rd.get_entry("reduced-moser")
    window = star_window(entry.system.resonance, 0.01)
    with pytest.raises(SmallDivisorError):
        GeneratorChi(
            entry.system,
            {(1, 0): (0.0, 1.0)},
            cutoff=4,
            window=window,
        )


def test_generator_guards_small_divisors():
    # widen the window across I1 = 0 where omega2 = I1 - I2 crosses zero
    entry = rd.get_entry("generic3")
    from resodrift.systems import ActionWindow

    bad_window = ActionWindow(-0.2, 1.51, -0.01, 0.01)
    with pytest.raises(SmallDivisorError):
        solve_homological(entry.system, entry.perturbation, 8, bad_window)


def test_solve_homological_respects_cutoff():
    terms = [((0, 1), 0.1, 0.0), ((0, 9), 0.0, 0.2), ((1, 0), 0.0, 0.5)]
    f = FourierPerturbation.from_terms(terms)
    entry = rd.get_entry("reduced-moser")
    window = star_window(entry.system.resonance, 0.01)
    chi = solve_homological(entry.system, f, 4, window)
    assert chi.mode_keys == [(0, 1)]  # (0,9) above cutoff, (1,0) resonant


def test_c1_norm_grid_sup_dominates_random_samples(rng):
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.005)
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    gamma = chi.c1_norm()
    th = rng.uniform(0, 1, (2, 4000))
    I1 = rng.uniform(window.i1_min, window.i1_max, 4000)
    I2 = rng.uniform(window.i2_min, window.i2_max, 4000)
    vals = np.abs(chi.evaluate(th[0], th[1], I1, I2))
    g_th, g_I = chi.gradients(th[0], th[1], I1, I2)
    sup_sample = max(
        vals.max(), np.abs(g_th).max(), np.abs(g_I).max()
    )
    assert gamma >= sup_sample - 1e-9
    assert gamma <= sup_sample * 1.05  # the grid sup lies close above the samples


def reference_c1_norm(chi, window):
    """c1_norm as it ran before tensor grids: 4-D meshgrids evaluated point by point."""
    return max(reference_c1_peaks(chi._table, window))


def test_c1_norm_matches_the_meshgrid_reference(one_step_results, two_step_results):
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.005)
    generators = [(solve_homological(entry.system, entry.perturbation, 8, window), window)]
    for step in one_step_results[1e-3].averaging_steps + two_step_results[1e-3].averaging_steps[1:]:
        generators.append((step.chi, step.chi.window))
    for chi, window in generators:
        got, want = chi.c1_norm(), reference_c1_norm(chi, window)
        assert abs(got - want) <= 1e-12 * want


def test_c1_norm_makes_one_streamed_pass(monkeypatch):
    # the five components share one streamed pass over the grid and no
    # other table evaluation
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.005)
    chi = solve_homological(entry.system, entry.perturbation, 8, window)
    calls = {"outer_blocks": 0, "outer": 0}

    def counted(name):
        original = getattr(fourier.ModeTable, name)

        def spy(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(fourier.ModeTable, name, spy)

    counted("outer_blocks")
    counted("outer")
    chi.c1_norm()
    assert calls == {"outer_blocks": 1, "outer": 0}


def test_c1_norm_memory_is_bounded_by_one_action_slice():
    # the grid's five component rows hold 5 x 64^2 x 17 x 5 values
    # (13.9 MB); the slices of ModeTable.outer_blocks hold about
    # BLOCK_VALUES values, under the bound of the C^j norm's memory test
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 2.0113351756469653e-3)
    chi = solve_homological(entry.system, entry.perturbation, 125, window)
    chi.c1_norm()
    tracemalloc.start()
    try:
        chi.c1_norm()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 33 * 128**2 * 8


# -- one-step normal form ----------------------------------------------------


# generic3's kappa bootstrap: each round's (kappa tried, gamma measured) and
# the cutoff it settles on
KAPPA_BOOTSTRAP = {
    1e-2: (((1.0, 1.0289115646258504), (2.057823129251701, 1.0616322418745403),
            (2.1232644837490806, 1.063734444022421), (2.127468888044842, 1.0638698278680516),
            (2.1277396557361032, 1.0638785480620658), (2.1277570961241317, 1.0638791097431002)), 12),
    1e-3: (((1.0, 1.0028088305124305), (2.005617661024861, 1.0056513745515776),
            (2.011302749103155, 1.005667495872144), (2.011334991744288, 1.005667587304918)), 125),
    1e-4: (((1.0, 1.0002800880304112), (2.0005601760608225, 1.0005605092900907),
            (2.0011210185801813, 1.0005606665237003)), 1250),
}


def test_kappa_bootstrap_is_pinned(one_step_results, two_step_results):
    for eps, (rounds, cutoff) in KAPPA_BOOTSTRAP.items():
        s1 = one_step_results[eps]
        assert s1.meta["kappa_rounds"] == rounds
        assert s1.averaging_steps[0].chi.cutoff == cutoff
    # chi2's grid sup; rel 1e-12 tells it from 0.7421512662808509, the sup
    # that a local refinement about the grid maximizer finds
    assert two_step_results[1e-3].averaging_steps[1].gamma == pytest.approx(0.7421512133437947, rel=1e-12)


def test_one_step_frozen_quantities(one_step_results):
    s1 = one_step_results[1e-3]
    assert s1.steps == 1
    assert s1.averaging_steps[0].chi.cutoff == 125
    assert s1.kappa == pytest.approx(2.0113351756469653, rel=1e-9)
    assert s1.homological_residual <= 1e-9
    assert s1.displacement <= s1.displacement_bound
    assert s1.displacement_bound == pytest.approx(s1.kappa * 1e-3 / 2, rel=1e-12)
    assert s1.displacement_ok
    assert s1.averaging_steps[0].f_bar.mode_keys == [(1, 0)]
    assert s1.genericity.passed


def test_kappa_bootstrap_rounds_are_recorded(one_step_results, two_step_results):
    s1 = one_step_results[1e-3]
    rounds = s1.meta["kappa_rounds"]
    # kappa starts at 1 and each round tries twice the gamma measured before
    assert len(rounds) == 4
    assert rounds[0][0] == 1.0
    for (_, gamma), (kappa, _) in zip(rounds, rounds[1:]):
        assert kappa == max(2.0 * gamma, 1.0)
    assert s1.kappa == max(rounds[-1][0], 2.0 * rounds[-1][1])
    assert s1.averaging_steps[0].gamma == rounds[-1][1]
    assert two_step_results[1e-3].meta["kappa_rounds"] == rounds


def test_one_step_remainder_matches_lie_series(one_step_results):
    # to leading order f' = {f_bar, chi} + (1/2){f_osc, chi}; the gap is O(eps)
    eps = 1e-4
    s1 = one_step_results[eps]
    entry = rd.get_entry("generic3")
    f_bar = s1.averaging_steps[0].f_bar
    f_osc = entry.perturbation.filter(lambda k: k[1] != 0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        th1, th2 = rng.uniform(0, 1, 2)
        I1 = rng.uniform(s1.sample_window.i1_min, s1.sample_window.i1_max)
        I2 = 0.0
        g_th_chi, g_I_chi = s1.chi.gradients(th1, th2, I1, I2)

        def bracket_with_chi(field):
            rows = field.table().evaluate(th1, th2, I1, I2)
            g_th_f, g_I_f = rows[1:3], rows[3:5]
            return (
                g_th_f[0] * g_I_chi[0]
                + g_th_f[1] * g_I_chi[1]
                - g_I_f[0] * g_th_chi[0]
                - g_I_f[1] * g_th_chi[1]
            )

        predicted = bracket_with_chi(f_bar) + 0.5 * bracket_with_chi(f_osc)
        measured = s1.remainder(th1, th2, I1, I2)
        worst = max(worst, abs(measured - predicted))
    # the neglected terms carry one extra factor of eps (times sup derivatives)
    assert worst < 50 * eps


def test_one_step_displacement_scales_with_epsilon(one_step_results):
    d2 = one_step_results[1e-2].displacement
    d3 = one_step_results[1e-3].displacement
    d4 = one_step_results[1e-4].displacement
    assert d2 / d3 == pytest.approx(10.0, rel=0.1)
    assert d3 / d4 == pytest.approx(10.0, rel=0.1)


def test_one_step_requires_positive_epsilon():
    b = rd.make_bundle("generic3", 0.0)
    with pytest.raises(ValueError):
        rd.one_step_normal_form(b)


def test_one_step_trivial_when_f_is_resonant():
    # a perturbation with only k2 = 0 modes has empty chi and zero remainder
    entry = rd.get_entry("reduced-moser")
    b = rd.SystemBundle(entry.system, entry.perturbation, 1e-3)
    s1 = rd.one_step_normal_form(b)
    assert s1.chi.is_zero
    assert s1.displacement == 0.0
    assert s1.sup_remainder <= 1e-10
    assert s1.homological_residual == 0.0


def _action_dependent_bundle(eps):
    """generic3's h with I-dependent coefficients on both oscillating modes."""
    f = FourierPerturbation.from_terms([
        ((1, 0), 0.0, 1.0 / TWO_PI),
        ((0, 1), PolyField.from_terms([(0, 0, 0.2), (1, 0, 0.1)]), 0.0),
        ((1, 1), 0.0, PolyField.from_terms([(0, 1, 0.5), (1, 0, 0.05)])),
    ])
    return rd.SystemBundle(rd.get_entry("generic3").system, f, eps)


def round_trip_miss(nf, seed: int) -> float:
    """Largest coordinate miss of Phi^-1 o Phi over 64 seeded points of nf's sample window."""
    w = nf.sample_window
    u = np.random.default_rng(seed).uniform(0.0, 1.0, size=(4, 64))
    start = (u[0], u[1], w.i1_min + (w.i1_max - w.i1_min) * u[2], w.i2_min + (w.i2_max - w.i2_min) * u[3])
    back = nf.phi_points(*nf.phi_points(*start), direction=-1.0)
    return float(max(np.max(np.abs(p - q)) for p, q in zip(back, start)))


def test_one_step_and_drift_on_an_action_dependent_perturbation():
    b = _action_dependent_bundle(1e-3)
    assert not b.perturbation.is_action_independent
    nf = rd.one_step_normal_form(b)
    assert nf.homological_residual <= 1e-9
    assert nf.displacement <= nf.displacement_bound
    assert nf.displacement_ok
    assert round_trip_miss(nf, 20240819) <= 1e-12
    rec = rd.run_drift_experiment(b)
    assert rec.pass_upper and rec.pass_lower


def first_order_residual(nf) -> float:
    """sup |f' - (f - f_bar - g_K) / eps - {G, chi}| on nf's sample window.

    With g_K the modes of f that chi removes (k2 != 0, |k| <= cutoff), the
    unit-time flow of eps chi expands H o Phi as h + eps (f - g_K)
    + eps^2 {f - g_K / 2, chi} + O(eps^3), where {G, chi} = G_theta . chi_I -
    G_I . chi_theta.  So the sampled remainder f' = (H o Phi - h - eps f_bar)
    / eps^2 misses that first-order prediction by O(eps).  The sup is taken
    on 4,000 seeded random points.
    """
    f, eps, step = nf.bundle.perturbation, nf.epsilon, nf.step1
    g = FourierPerturbation.from_terms(
        (k, a, b) for k, (a, b) in f.modes.items() if k[1] != 0 and max(map(abs, k)) <= step.chi.cutoff
    )
    w = nf.sample_window
    rng = np.random.default_rng(20240815)
    points = tuple(rng.uniform(lo, hi, 4000) for lo, hi in
                   ((0.0, 1.0), (0.0, 1.0), (w.i1_min, w.i1_max), (w.i2_min, w.i2_max)))
    G = (f - g * 0.5).table().evaluate(*points)
    chi_theta, chi_I = step.chi.gradients(*points)
    bracket = G[1] * chi_I[0] + G[2] * chi_I[1] - G[3] * chi_theta[0] - G[4] * chi_theta[1]
    first = (f - step.f_bar - g)(*points) / eps + bracket
    return float(np.max(np.abs(nf.remainder(*points) - first)))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_remainder_matches_its_first_order_bracket(one_step_results, eps):
    # an independent check of the measured remainder: the residual is
    # 0.16-0.22 eps for both series, and 0.6-0.8 with the bracket's sign
    # flipped; the action-dependent series is where G_I . chi_theta is
    # nonzero
    for nf in (one_step_results[eps], rd.one_step_normal_form(_action_dependent_bundle(eps))):
        assert first_order_residual(nf) <= 0.3 * eps


# -- two-step normal form ----------------------------------------------------


def test_two_step_fit_and_displacement(two_step_results):
    s2 = two_step_results[1e-3]
    assert s2.steps == 2
    assert s2.averaging_steps[1].chi.cutoff == 63
    assert s2.meta["fit_residual"] <= 1e-6 * s2.meta["sup_f_prime_grid"]
    assert s2.displacement <= s2.displacement_bound
    assert s2.displacement_bound == pytest.approx(3 * s2.kappa * 1e-3 / 4, rel=1e-12)
    assert s2.sup_remainders[1] > 0.0
    # the second averaged correction only keeps resonant modes
    assert all(k[1] == 0 for k in s2.averaging_steps[1].f_bar.mode_keys)


def test_window_and_bound_follow_from_the_steps(one_step_results, two_step_results):
    # step n's budget is kappa eps / 2^n; the result samples on the window of
    # its last budget and may move a point by the sum of the budgets
    assert {f.name for f in dataclasses.fields(rd.NormalFormResult)}.isdisjoint(
        {"sample_window", "displacement_bound"}
    )
    for eps, nf in one_step_results.items():
        res, kappa = nf.bundle.system.resonance, nf.kappa
        assert nf.displacement_bound == kappa * eps / 2.0
        assert nf.sample_window == star_window(res, kappa * eps / 2.0)
    for eps, nf in two_step_results.items():
        res, kappa = nf.bundle.system.resonance, nf.kappa
        assert nf.displacement_bound == 3.0 * kappa * eps / 4.0
        assert nf.sample_window == star_window(res, kappa * eps / 4.0)
        assert nf.quarter_window == nf.sample_window
        assert nf.averaging_steps[1].chi.window == one_step_results[eps].sample_window


def test_a_step_reads_its_window_and_cutoff_off_its_generator(one_step_results):
    assert {f.name for f in dataclasses.fields(rd.AveragingStep)}.isdisjoint({"window", "cutoff"})
    nf = one_step_results[1e-3]
    assert nf.window == nf.chi.window == star_window(nf.bundle.system.resonance, nf.kappa * 1e-3)
    assert nf.chi.cutoff == 125


def test_results_and_steps_are_frozen(one_step_results):
    nf = one_step_results[1e-3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        nf.displacement = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        nf.averaging_steps[0].budget = 1.0


def test_averaging_step_over_its_budget_raises(one_step_results):
    step = one_step_results[1e-3].step1
    # a budget of exactly scale * gamma is admitted, a little less is not
    dataclasses.replace(step, budget=step.scale * step.gamma)
    with pytest.raises(FlowEscapeError, match="flow budget"):
        dataclasses.replace(step, budget=step.scale * step.gamma * (1.0 - 1e-6))
    with pytest.raises(FlowEscapeError, match="flow budget"):
        dataclasses.replace(step, gamma=2.0 * step.budget / step.scale)


def test_two_step_on_an_exactly_zero_remainder_keeps_the_mean_alone():
    # chi1 = 0 on reduced-moser, so f' is exactly 0 and its spectrum has no
    # mode that reaches a nonzero floor
    entry = rd.get_entry("reduced-moser")
    nf = rd.two_step_normal_form(rd.SystemBundle(entry.system, entry.perturbation, 1e-3), theta_grid=48)
    assert nf.meta["n_kept_modes"] == 1
    assert nf.meta["sup_f_prime_grid"] == 0.0
    assert nf.chi2.is_zero


@pytest.mark.parametrize("steps", [1, 2])
def test_remainder_on_tensor_axes_equals_its_meshgrid(one_step_results, two_step_results, steps):
    nf = (one_step_results if steps == 1 else two_step_results)[1e-3]
    th = np.linspace(0.0, 1.0, 8, endpoint=False)
    I1, I2 = nf.sample_window.grid(3, 2)
    tensor = nf.remainder(th[:, None, None, None], th[None, :, None, None], I1[:, None], I2)
    assert tensor.shape == (8, 8, 3, 2)
    np.testing.assert_array_equal(tensor, nf.remainder(*np.meshgrid(th, th, I1, I2, indexing="ij")))


def test_chebyshev_fit_changes_basis_on_each_axis(one_step_results):
    # Tables of exactly the fitted degrees are recovered by the fit; their raw
    # power tables must reproduce chebval2d of the same tables on the fit
    # nodes.  Measured on this window: at most 2.5e-5 of a table's sup over 60
    # random tables, the rounding floor of degree-12 raw powers on
    # [0.5, 1.5]; the bound 1e-4 leaves a 4x margin.
    # A transposed I2 matrix or swapped axis windows miss by O(1).
    w = one_step_results[1e-3].sample_window
    d1, d2 = averaging.FIT_DEGREES
    tables = np.random.default_rng(3).standard_normal((3, d1 + 1, d2 + 1))
    I1, I2 = w.grid(*averaging.FIT_I_GRID, chebyshev_i1=True)
    u = (I1 - 0.5 * (w.i1_min + w.i1_max)) / (0.5 * (w.i1_max - w.i1_min))
    v = (I2 - 0.5 * (w.i2_min + w.i2_max)) / (0.5 * (w.i2_max - w.i2_min))
    U, V = np.meshgrid(u, v, indexing="ij")
    targets = np.stack([chebval2d(U, V, c) for c in tables])
    polys = averaging._chebyshev_fit_polyfields(w, I1, I2, targets, (d1, d2))
    A1, A2 = np.meshgrid(I1, I2, indexing="ij")
    for p, t in zip(polys, targets):
        assert np.max(np.abs(p(A1, A2) - t)) <= 1e-4 * np.max(np.abs(t))


def test_two_step_remainder_is_epsilon_stable(two_step_results):
    sups = [two_step_results[eps].sup_remainders[1] for eps in (1e-2, 1e-3, 1e-4)]
    assert max(sups) / min(sups) <= 4.0


def test_two_step_composed_map_is_symplectic(two_step_results):
    from resodrift.integrate import symplecticity_defect
    from resodrift.torus import PhaseState

    s2 = two_step_results[1e-3]
    defect = symplecticity_defect(s2.phi, PhaseState.make(0.21, 0.43, 1.05, 0.0002))
    assert defect < 1e-6


@pytest.mark.parametrize("steps", [1, 2])
def test_inverse_transform_undoes_the_composition(one_step_results, two_step_results, steps):
    # Phi = Phi_1 o ... o Phi_n, so direction=-1 must undo Phi_1 first; the
    # sample window is the half window for one step, the quarter for two
    from resodrift.torus import PhaseState, circle_delta

    nf = (one_step_results if steps == 1 else two_step_results)[1e-3]
    assert round_trip_miss(nf, 20240818) <= 1e-12

    w = nf.sample_window
    state = PhaseState.make(0.21, 0.43, 0.5 * (w.i1_min + w.i1_max), 0.5 * w.i2_max)
    again = nf.phi(nf.phi(state), direction=-1.0).as_array()
    miss = np.abs(again - state.as_array())
    miss[:2] = np.abs(circle_delta(again[:2], state.as_array()[:2]))
    assert np.max(miss) <= 1e-12


def test_two_step_builds_on_an_action_dependent_mode():
    # the fit carries the I1 dependence of the (1, 1) mode's remainder: the
    # mean and one mode are kept, and the fit misses f' by 4.4e-12
    poly = PolyField.from_terms([(1, 0, 1.0)])
    f = FourierPerturbation.from_terms(
        [((1, 0), 0.0, 0.2), ((1, 1), poly, 0.0)]
    )
    entry = rd.get_entry("reduced-moser")
    nf = rd.two_step_normal_form(rd.SystemBundle(entry.system, f, 1e-3), theta_grid=48)
    assert nf.meta["n_kept_modes"] == 2
    assert nf.meta["fit_residual"] <= averaging.RESIDUAL_BUDGET * nf.meta["sup_f_prime_grid"]
    assert nf.displacement_ok


def test_two_step_on_an_action_dependent_perturbation():
    # measured at theta_grid=48: 24 and 21 kept modes, fit residuals
    # 1.04e-7 and 1.02e-7 against the allowed 3.2e-7, and sup f'' 0.2624
    # and 0.2616
    sups = []
    for eps in (1e-3, 1e-4):
        nf = rd.two_step_normal_form(_action_dependent_bundle(eps), theta_grid=48)
        assert nf.meta["fit_residual"] <= averaging.RESIDUAL_BUDGET * nf.meta["sup_f_prime_grid"]
        assert nf.displacement_ok
        assert round_trip_miss(nf, 20240820) <= 1e-12
        sups.append(nf.sup_remainders[1])
    assert max(sups) / min(sups) <= 4.0


def test_two_step_tiny_budget_raises_fit_error(generic3_bundles, one_step_results, monkeypatch):
    monkeypatch.setattr(averaging, "RESIDUAL_BUDGET", 1e-16)
    with pytest.raises(WindowFitError):
        rd.two_step_normal_form(generic3_bundles[1e-3], step1=one_step_results[1e-3], theta_grid=48)


def test_two_step_rejects_a_foreign_step1(generic3_bundles, one_step_results, two_step_results):
    # a first step of another bundle, or a two-step result, is not this
    # bundle's first step
    bundle = generic3_bundles[1e-3]
    for step1 in (one_step_results[1e-2], two_step_results[1e-3]):
        with pytest.raises(ValueError, match="step1"):
            rd.two_step_normal_form(bundle, step1=step1, theta_grid=48)
