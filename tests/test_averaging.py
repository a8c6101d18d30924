import tracemalloc

import numpy as np
import pytest

import resodrift as rd
from resodrift import averaging, fourier, norms
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
    lam_raw = np.max(np.abs(series.partial(d_theta1=1)(phi, 0.0, 0.0, 0.0)))
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


def test_c1_norm_refinement_dominates_dense_grid(rng):
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
    assert gamma <= sup_sample * 1.05  # the refinement should not overshoot


def reference_c1_norm(chi, window):
    """c1_norm as it ran before tensor grids: 4-D meshgrids evaluated point by point."""
    return max(reference_c1_peaks(chi._table, window))


def test_c1_norm_matches_the_meshgrid_reference(one_step_results, two_step_results):
    entry = rd.get_entry("generic3")
    window = star_window(entry.system.resonance, 0.005)
    generators = [(solve_homological(entry.system, entry.perturbation, 8, window), window)]
    for step in one_step_results[1e-3].averaging_steps + two_step_results[1e-3].averaging_steps[1:]:
        generators.append((step.chi, step.window))
    for chi, window in generators:
        got, want = chi.c1_norm(), reference_c1_norm(chi, window)
        assert abs(got - want) <= 1e-12 * want


def test_c1_norm_ties_go_to_the_first_point_in_grid_order(monkeypatch):
    # chi = cos(2 pi theta2) / (2 pi I1) on reduced-moser's chart: every
    # component peaks on whole lines of the grid, so the coarse maximizers
    # are ties, and they must be the ones argmax picks on the 4-D meshgrid
    entry = rd.get_entry("reduced-moser")
    window = star_window(entry.system.resonance, 0.01)
    chi = GeneratorChi(entry.system, {(0, 1): (PolyField.from_terms([(0, 0, 1.0)]), PolyField.zero())}, 1, window)
    starts = []
    original = norms._grid_argmax

    def spy(table, axes):
        out = original(table, axes)
        starts.extend(tuple(ax[i] for ax, i in zip(axes, idx)) for _, idx in out)
        return out

    monkeypatch.setattr(norms, "_grid_argmax", spy)
    # one action point per slice, so ties also fall across slices
    monkeypatch.setattr(fourier, "BLOCK_VALUES", 1)
    n_theta, n_action = 8, (5, 3)
    monkeypatch.setattr(norms, "C1_ANGLES", n_theta)
    monkeypatch.setattr(norms, "C1_ACTIONS", n_action)
    monkeypatch.setattr(norms, "C1_ROUNDS", 1)
    chi.c1_norm()
    th = np.linspace(0.0, 1.0, n_theta, endpoint=False)
    I1, I2 = window.grid(*n_action)
    grids = np.meshgrid(th, th, I1, I2, indexing="ij")
    vals = np.abs(np.asarray(chi._table.evaluate(*grids)))
    want = []
    for c in range(5):
        idx = np.unravel_index(int(np.argmax(vals[c])), vals[c].shape)
        want.append(tuple(g[idx] for g in grids))
    assert starts == want


def test_c1_norm_makes_one_coarse_pass_and_one_evaluation_per_round(monkeypatch):
    # the five components share every table evaluation: one streamed pass
    # over the coarse grid, then one outer call per refinement round
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
    assert calls == {"outer_blocks": 1, "outer": norms.C1_ROUNDS}


def test_c1_norm_memory_is_bounded_by_one_action_slice():
    # the coarse grid's five component rows hold 5 x 64^2 x 17 x 5 values
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


def test_one_step_frozen_quantities(one_step_results):
    s1 = one_step_results[1e-3]
    assert s1.steps == 1
    assert s1.averaging_steps[0].cutoff == 125
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
            g_th_f = field.theta_gradient(th1, th2, I1, I2)
            g_I_f = field.action_gradient(th1, th2, I1, I2)
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


def test_one_step_and_drift_on_an_action_dependent_perturbation():
    # generic3's h with I-dependent coefficients on both oscillating modes
    system = rd.get_entry("generic3").system
    f = FourierPerturbation.from_terms([
        ((1, 0), 0.0, 1.0 / TWO_PI),
        ((0, 1), PolyField.from_terms([(0, 0, 0.2), (1, 0, 0.1)]), 0.0),
        ((1, 1), 0.0, PolyField.from_terms([(0, 1, 0.5), (1, 0, 0.05)])),
    ])
    assert not f.is_action_independent
    b = rd.SystemBundle(system, f, 1e-3)
    nf = rd.one_step_normal_form(b)
    assert nf.homological_residual <= 1e-9
    assert nf.displacement <= nf.displacement_bound
    assert nf.displacement_ok
    w = nf.sample_window
    u = np.random.default_rng(20240819).uniform(0.0, 1.0, size=(4, 64))
    start = (u[0], u[1], w.i1_min + (w.i1_max - w.i1_min) * u[2], w.i2_min + (w.i2_max - w.i2_min) * u[3])
    back = nf.phi_points(*nf.phi_points(*start), direction=-1.0)
    assert max(np.max(np.abs(p - q)) for p, q in zip(back, start)) <= 1e-12
    rec = rd.run_drift_experiment(b)
    assert rec.pass_upper and rec.pass_lower


# -- two-step normal form ----------------------------------------------------


def test_two_step_fit_and_displacement(two_step_results):
    s2 = two_step_results[1e-3]
    assert s2.steps == 2
    assert s2.averaging_steps[1].cutoff == 63
    assert s2.meta["fit_residual"] <= 1e-6 * s2.meta["sup_f_prime_grid"]
    assert s2.displacement <= s2.displacement_bound
    assert s2.displacement_bound == pytest.approx(3 * s2.kappa * 1e-3 / 4, rel=1e-12)
    assert s2.sup_remainders[1] > 0.0
    # the second averaged correction only keeps resonant modes
    assert all(k[1] == 0 for k in s2.averaging_steps[1].f_bar.mode_keys)


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
    w = nf.sample_window
    u = np.random.default_rng(20240818).uniform(0.0, 1.0, size=(4, 64))
    start = (
        u[0],
        u[1],
        w.i1_min + (w.i1_max - w.i1_min) * u[2],
        w.i2_min + (w.i2_max - w.i2_min) * u[3],
    )
    back = nf.phi_points(*nf.phi_points(*start), direction=-1.0)
    assert max(np.max(np.abs(b - s)) for b, s in zip(back, start)) <= 1e-12

    state = PhaseState.make(0.21, 0.43, 0.5 * (w.i1_min + w.i1_max), 0.5 * w.i2_max)
    again = nf.phi(nf.phi(state), direction=-1.0).as_array()
    miss = np.abs(again - state.as_array())
    miss[:2] = np.abs(circle_delta(again[:2], state.as_array()[:2]))
    assert np.max(miss) <= 1e-12


def test_two_step_rejects_action_dependent_perturbation():
    poly = PolyField.from_terms([(1, 0, 1.0)])
    f = FourierPerturbation.from_terms(
        [((1, 0), 0.0, 0.2), ((1, 1), poly, 0.0)]
    )
    entry = rd.get_entry("reduced-moser")
    b = rd.SystemBundle(entry.system, f, 1e-3)
    with pytest.raises(ValueError):
        rd.two_step_normal_form(b)


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
