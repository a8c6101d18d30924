"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints its measured numbers so a verbose run doubles as a report.
The expensive normal-form builds come from the session fixtures; everything
else is run fresh at the stated settings.
"""

import time

import numpy as np
import pytest

import resodrift as rd
from resodrift.averaging import average_over_theta2
from resodrift.experiments import (
    exact_moser_orbit,
    run_connecting_experiment,
    run_drift_experiment,
    sweep_epsilon,
)
from resodrift.integrate import integrate, symplecticity_defect
from resodrift.torus import PhaseState, circle_delta

EPS_PAIR = (1e-2, 1e-3)


@pytest.fixture(scope="module")
def drift_records(generic3_bundles):
    return {eps: run_drift_experiment(generic3_bundles[eps]) for eps in EPS_PAIR}


def test_criterion_1_exact_oracle_reproduction():
    eps = 1e-3
    b = rd.make_bundle("moser", eps)
    t0 = time.perf_counter()
    rec = integrate(b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 1e3), energy_fn=b.energy_of)
    elapsed = time.perf_counter() - t0
    th1, th2, I1, I2 = exact_moser_orbit(eps, rec.t)
    dev_actions = np.max(np.abs(rec.actions - np.stack([I1, I2], axis=1)))
    dev_angles = np.max(
        np.abs(circle_delta(rec.theta, np.stack([th1, th2], axis=1)))
    )
    dev = max(dev_actions, dev_angles)
    print(f"\n  sup deviation from closed form: {dev:.3e} (<= 1e-8), runtime {elapsed:.2f} s (<= 30)")
    assert dev <= 1e-8
    assert elapsed <= 30.0


def test_criterion_2_homological_residual(one_step_results):
    for eps in EPS_PAIR:
        result = one_step_results[eps]
        # the build-time check grid is 16 x 8 angles (128 theta points) by
        # 65 x 17 actions, the stated 128 x 65 x 17 lattice
        resid = result.homological_residual
        print(f"\n  eps={eps:g}: max |omega . d_theta chi - g_K| = {resid:.3e} (<= 1e-9)")
        assert resid <= 1e-9


def test_criterion_3_normal_form_displacement(one_step_results, two_step_results):
    # the builds in conftest use the default 200-point displacement sample
    import inspect

    for fn in (rd.one_step_normal_form, rd.two_step_normal_form):
        assert inspect.signature(fn).parameters["displacement_points"].default == 200
    for eps in EPS_PAIR:
        s1 = one_step_results[eps]
        bound1 = 0.5 * s1.kappa * eps
        print(f"\n  eps={eps:g} step 1: |Phi - Id| = {s1.displacement:.3e} <= {bound1:.3e}")
        assert s1.displacement_bound == pytest.approx(bound1, rel=1e-12)
        assert s1.displacement <= bound1
        s2 = two_step_results[eps]
        bound2 = 0.75 * s2.kappa * eps
        print(f"  eps={eps:g} step 2: |Phi - Id| = {s2.displacement:.3e} <= {bound2:.3e}")
        assert s2.displacement_bound == pytest.approx(bound2, rel=1e-12)
        assert s2.displacement <= bound2


def test_criterion_4_remainder_uniformity(one_step_results, two_step_results):
    sup1 = [one_step_results[eps].sup_remainder for eps in sorted(one_step_results)]
    sup2 = [two_step_results[eps].sup_remainders[1] for eps in sorted(two_step_results)]
    ratio1 = max(sup1) / min(sup1)
    ratio2 = max(sup2) / min(sup2)
    print(f"\n  sup|f'| across eps trio: {sup1} ratio {ratio1:.3f} (<= 4)")
    print(f"  sup|f''| across eps trio: {sup2} ratio {ratio2:.3f} (<= 4)")
    assert ratio1 <= 4.0
    assert ratio2 <= 4.0


def test_criterion_5_drift_window(drift_records):
    for eps in EPS_PAIR:
        rec = drift_records[eps]
        print(
            f"\n  eps={eps:g}: drift={rec.drift:.6f} delta={rec.delta:.6f} "
            f"C_fit={rec.C_fit:.4f}"
        )
        assert rec.C_fit * rec.delta**2 <= rec.drift + 1e-15
        assert rec.drift <= rec.delta + 1e-6
        assert rec.pass_upper and rec.pass_lower
    ratio = drift_records[1e-2].C_fit / drift_records[1e-3].C_fit
    print(f"  C_fit stability across the decade: ratio {ratio:.4f} (in [0.5, 2])")
    assert 0.5 <= ratio <= 2.0
    moser = run_drift_experiment(rd.make_bundle("reduced-moser", 1e-3))
    print(f"  reduced-moser: |drift - delta| = {abs(moser.drift - moser.delta):.3e} (<= 1e-6)")
    assert abs(moser.drift - moser.delta) <= 1e-6


def test_criterion_6_confinement(drift_records):
    ratio = drift_records[1e-2].c_fit / drift_records[1e-3].c_fit
    print(
        f"\n  c_fit = max|I2|/eps: {drift_records[1e-2].c_fit:.4f} at 1e-2, "
        f"{drift_records[1e-3].c_fit:.4f} at 1e-3, ratio {ratio:.4f} (in [0.5, 2])"
    )
    assert 0.5 <= ratio <= 2.0
    moser = run_drift_experiment(rd.make_bundle("reduced-moser", 1e-3))
    print(f"  reduced-moser max|I2| = {moser.max_abs_I2:.3e} (<= 1e-9)")
    assert moser.max_abs_I2 <= 1e-9


def test_criterion_7_diffusion_time_scaling():
    eps_list = (1e-2, 3e-3, 1e-3)
    t0 = time.perf_counter()
    g = rd.get_entry("generic3")
    sweep_g = sweep_epsilon(g.system, g.perturbation, eps_list, target_drift=0.1)
    m = rd.get_entry("reduced-moser")
    sweep_m = sweep_epsilon(m.system, m.perturbation, eps_list, target_drift=0.1)
    elapsed = time.perf_counter() - t0
    print(f"\n  generic3 p = {sweep_g.p:.6f} (in [0.9, 1.1])")
    print(f"  reduced-moser p = {sweep_m.p:.9f} (|p - 1| <= 1e-3)")
    print(f"  sweep runtime {elapsed:.1f} s (<= 600)")
    assert sweep_g.all_reached and sweep_m.all_reached
    assert 0.9 <= sweep_g.p <= 1.1
    assert abs(sweep_m.p - 1.0) <= 1e-3
    assert elapsed <= 600.0


def test_criterion_8_connecting_experiment():
    eps = 1e-3
    moser = run_connecting_experiment(rd.make_bundle("reduced-moser", eps), 1.0, 1.05)
    print(
        f"\n  reduced-moser 1.0 -> 1.05: tau = {moser.tau:.9f} (50 +- 1e-3), "
        f"terminal distance {moser.extras['terminal_distance']:.3e} (<= 1e-6)"
    )
    assert moser.extras["terminal_distance"] <= 1e-6
    assert abs(moser.tau - 50.0) <= 1e-3
    gen = run_connecting_experiment(rd.make_bundle("generic3", eps), 1.0, 1.05)
    budget = 2.0 * gen.extras["rho"] / (gen.lam * eps)
    print(
        f"  generic3 1.0 -> 1.05: tau = {gen.tau:.4f} (<= {budget:.1f}), "
        f"terminal distance {gen.extras['terminal_distance']:.3e} (<= c_fit eps = {gen.c_fit * eps:.3e})"
    )
    assert gen.extras["terminal_distance"] <= gen.c_fit * eps + 1e-12
    assert gen.tau <= budget * (1.0 + 1e-9)


def test_criterion_9_structural_suites(one_step_results, moser_reduction):
    state = PhaseState.make(0.31, 0.47, 1.0, 0.0)
    defect_phi = symplecticity_defect(one_step_results[1e-3].phi, state)
    defect_M = symplecticity_defect(moser_reduction.forward, PhaseState.make(0.31, 0.47, 1.0, -1.0))
    print(f"\n  symplecticity defect: step-1 Phi {defect_phi:.3e} (<= 1e-6), chart map {defect_M:.3e} (<= 1e-12)")
    assert defect_phi <= 1e-6
    assert defect_M <= 1e-12

    f = rd.get_entry("generic3").perturbation
    fbar = average_over_theta2(f)
    assert average_over_theta2(fbar).modes == fbar.modes
    print("  averaging projection idempotent: exact")

    rng = np.random.default_rng(3)
    th1, th2 = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    I1, I2 = rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 50)
    fwd = moser_reduction.forward_points(th1, th2, I1, I2)
    back = moser_reduction.backward_points(*fwd)
    gap = max(
        float(np.max(np.abs(circle_delta(back[0], th1)))),
        float(np.max(np.abs(circle_delta(back[1], th2)))),
        float(np.max(np.abs(back[2] - I1))),
        float(np.max(np.abs(back[3] - I2))),
    )
    print(f"  reduction round-trip gap: {gap:.3e} (<= 1e-12)")
    assert gap <= 1e-12

    assert moser_reduction.umap.det in (-1, 1)
    print(f"  det(M) = {moser_reduction.umap.det} (exact)")

    b0 = rd.make_bundle("generic3", 0.0)
    rec = integrate(b0.rhs(), [0.2, 0.9, 1.1, 0.003], (0.0, 30.0))
    assert np.all(rec.actions[:, 0] == 1.1)
    assert np.all(rec.actions[:, 1] == 0.003)
    print("  eps = 0 actions bitwise constant: exact")
