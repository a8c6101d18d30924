import dataclasses

import numpy as np
import pytest

import resodrift as rd
from resodrift.experiments import (
    ExperimentRecord,
    exact_moser_orbit,
    optimality_check,
    run_connecting_experiment,
    run_drift_experiment,
    sweep_epsilon,
)
from resodrift.systems import SystemBundle
from resodrift.torus import PhaseState


def test_exact_moser_orbit_closed_form():
    eps = 1e-3
    t = np.array([0.0, 1.0, 10.0, 250.0])
    th1, th2, I1, I2 = exact_moser_orbit(eps, t)
    assert np.array_equal(I1, -eps * t)
    assert np.array_equal(I2, eps * t)
    assert np.array_equal(th1, -0.5 * eps * t**2)
    assert np.array_equal(th1, th2)
    # the two conserved combinations vanish identically on this orbit
    assert np.all(th1 - th2 == 0.0)
    assert np.all(I1 + I2 == 0.0)


def test_exact_moser_orbit_solves_the_equations_of_motion():
    eps = 1e-3
    b = rd.make_bundle("moser", eps)
    rhs = b.rhs()
    h = 1e-5
    for t in (0.0, 3.0, 40.0):
        th1, th2, I1, I2 = exact_moser_orbit(eps, t)
        y = np.array([float(th1), float(th2), float(I1), float(I2)])
        plus = np.array([v[()] for v in exact_moser_orbit(eps, t + h)])
        minus = np.array([v[()] for v in exact_moser_orbit(eps, t - h)])
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(fd - rhs(t, y))) < 1e-8


# -- drift runs ---------------------------------------------------------------


def test_reduced_moser_drift_is_exactly_delta():
    b = rd.make_bundle("reduced-moser", 1e-3)
    rec = run_drift_experiment(b)
    # default budget: delta = min(lambda / 4, delta*) = min(0.225, 0.5)
    assert rec.lam == pytest.approx(0.9, rel=1e-12)
    assert rec.delta == pytest.approx(0.225, rel=1e-12)
    assert rec.tau == pytest.approx(225.0, rel=1e-9)
    # the forcing is constant along this orbit, so drift = epsilon * tau = delta
    assert rec.drift == pytest.approx(rec.delta, abs=1e-9)
    # and the transverse action never moves at all
    assert rec.max_abs_I2 == 0.0
    assert rec.c_fit == 0.0
    assert rec.pass_upper and rec.pass_lower and not rec.flagged
    assert rec.kind == "drift"
    assert rec.I_star == (1.0, 0.0)
    assert rec.theta1_star == 0.0
    assert rec.C_fit == pytest.approx(rec.drift / rec.delta**2, rel=1e-12)


def test_drift_with_zero_epsilon_is_a_unit_time_null_run():
    b = rd.make_bundle("reduced-moser", 0.0)
    rec = run_drift_experiment(b)
    assert rec.tau == 1.0
    assert rec.drift == 0.0
    assert rec.c_fit == 0.0
    assert rec.pass_upper and rec.pass_lower


def test_generic3_drift_obeys_both_bounds():
    b = rd.make_bundle("generic3", 1e-3)
    rec = run_drift_experiment(b)
    assert rec.pass_upper and rec.pass_lower
    assert not rec.flagged
    assert rec.drift <= rec.delta + 1e-6
    assert rec.drift >= 1.0 * rec.delta**2 - 1e-12
    # transverse confinement: |I2| stays order epsilon
    assert 0.1 < rec.c_fit < 10.0
    assert rec.max_dist_channel <= rec.delta + 0.1
    # the report carries the orbit's energy error, a check on the integrator
    assert rec.as_dict()["max_energy_error"] <= 1e-8


def test_drift_rejects_bad_inputs():
    moser = rd.make_bundle("moser", 1e-3)
    with pytest.raises(ValueError, match="reduced chart"):
        run_drift_experiment(moser)
    b = rd.make_bundle("reduced-moser", 1e-3)
    for delta in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            run_drift_experiment(b, delta=delta)
    # a perturbation whose theta2 average vanishes has no certified direction
    flat = rd.FourierPerturbation.from_terms([((0, 1), 0.0, 0.5)])
    degenerate = SystemBundle(b.system, flat, 1e-3)
    with pytest.raises(ValueError, match="genericity"):
        run_drift_experiment(degenerate)


@pytest.mark.parametrize("C_cfg", [0.0, -1.0, float("nan"), float("inf")])
def test_drift_rejects_a_lower_bound_constant_that_is_not_finite_and_positive(C_cfg):
    b = rd.make_bundle("reduced-moser", 1e-3)
    with pytest.raises(ValueError, match="C_cfg"):
        run_drift_experiment(b, C_cfg=C_cfg)


# -- connecting runs ----------------------------------------------------------


def test_connect_reaches_target_in_either_direction():
    b = rd.make_bundle("reduced-moser", 1e-3)
    up = run_connecting_experiment(b, 1.0, 1.05)
    down = run_connecting_experiment(b, 1.0, 0.95)
    for rec, sign in ((up, -1.0), (down, 1.0)):
        assert rec.extras["reached"]
        assert rec.extras["time_sign"] == sign
        assert rec.extras["terminal_distance"] <= 1e-6
        assert rec.tau == pytest.approx(50.0, abs=1e-3)
        assert rec.tau <= rec.tau_target * (1.0 + 1e-9)
        assert rec.pass_upper and rec.pass_lower and not rec.flagged
    assert up.final.I1 == pytest.approx(1.05, abs=1e-6)
    assert down.final.I1 == pytest.approx(0.95, abs=1e-6)
    # budgeted time is delta / eps with delta = 2 rho / lambda
    assert up.tau_target == pytest.approx(2 * 0.05 / 0.9 / 1e-3, rel=1e-12)


def test_connect_coinciding_endpoints_is_trivial():
    b = rd.make_bundle("reduced-moser", 1e-3)
    rec = run_connecting_experiment(b, 1.2, 1.2)
    assert rec.tau == 0.0
    assert rec.drift == 0.0
    assert rec.orbit is None
    assert rec.extras["reached"]
    assert rec.initial == rec.final


def test_connect_input_validation():
    b = rd.make_bundle("reduced-moser", 1e-3)
    with pytest.raises(ValueError, match="outside the channel"):
        run_connecting_experiment(b, 1.0, 99.0)
    frozen = rd.make_bundle("reduced-moser", 0.0)
    with pytest.raises(ValueError, match="epsilon > 0"):
        run_connecting_experiment(frozen, 1.0, 1.05)
    moser = rd.make_bundle("moser", 1e-3)
    with pytest.raises(ValueError, match="reduced chart"):
        run_connecting_experiment(moser, 1.0, 1.05)


# -- optimality audit ---------------------------------------------------------


def test_drift_never_beats_the_c1_bound():
    b = rd.make_bundle("reduced-moser", 1e-3)
    rec = run_drift_experiment(b)
    report = optimality_check(rec, b)
    assert report.passed
    assert report.f_c1_norm == pytest.approx(1.0, rel=1e-6)
    assert report.bound == pytest.approx(rec.delta * report.f_c1_norm + 1e-6, rel=1e-12)
    assert report.slack >= 0.0
    # this run saturates the bound up to the tolerance cushion
    assert report.slack < 1e-5
    keys = set(report.as_dict())
    assert keys == {"drift", "delta", "f_c1_norm", "bound", "slack", "passed"}


# |f|_C1 of the audit, pinned to the float drift_report.json carries
AUDIT_C1_NORMS = {"generic3": 3.141592653589793, "moser": 1.0, "product": 1.0, "reduced-moser": 1.0}


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("name", rd.catalog_names())
def test_audit_c1_norm_is_pinned(name, eps):
    entry = rd.get_entry(name)
    system, f = entry.system, entry.perturbation
    if not system.is_reduced:
        reduced = rd.reduce_system(system, f)
        system, f = reduced.system, reduced.perturbation
    b = SystemBundle(system, f, eps)
    assert optimality_check(run_drift_experiment(b), b).f_c1_norm == AUDIT_C1_NORMS[name]


# -- sweeps -------------------------------------------------------------------


def test_sweep_guards():
    e = rd.get_entry("reduced-moser")
    with pytest.raises(ValueError, match="three"):
        sweep_epsilon(e.system, e.perturbation, (1e-2, 1e-3))
    with pytest.raises(ValueError, match="positive"):
        sweep_epsilon(e.system, e.perturbation, (1e-2, 1e-3, 0.0))
    with pytest.raises(ValueError, match="decade"):
        sweep_epsilon(e.system, e.perturbation, (1e-2, 8e-3, 5e-3))
    # a repeated value would leave the fit a line through two points
    with pytest.raises(ValueError, match="distinct"):
        sweep_epsilon(e.system, e.perturbation, (1e-2, 1e-2, 1e-3))
    for target in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="target_drift"):
            sweep_epsilon(e.system, e.perturbation, (1e-2, 3e-3, 1e-3), target_drift=target)
    moser = rd.get_entry("moser")
    with pytest.raises(ValueError, match="reduced chart"):
        sweep_epsilon(moser.system, moser.perturbation, (1e-2, 3e-3, 1e-3))


def test_sweep_recovers_inverse_epsilon_scaling():
    e = rd.get_entry("reduced-moser")
    sweep = sweep_epsilon(e.system, e.perturbation, (1e-2, 3e-3, 1e-3), target_drift=0.1)
    assert sweep.all_reached
    assert abs(sweep.p - 1.0) < 1e-3
    # tau = target / eps exactly here, so the prefactor is the target itself
    assert sweep.A == pytest.approx(0.1, rel=1e-6)
    assert sweep.r_squared > 1.0 - 1e-12
    # no transverse motion at all: the ratio degenerates to its neutral value
    assert sweep.confinement_ratio == 1.0
    assert [r.epsilon for r in sweep.records] == [1e-3, 3e-3, 1e-2]
    for rec in sweep.records:
        assert rec.kind == "sweep"
        assert not rec.flagged
        assert rec.tau == pytest.approx(0.1 / rec.epsilon, rel=1e-6)
    fit = sweep.fit_dict()
    assert set(fit) == {"p", "A", "r_squared", "target_drift", "confinement_ratio", "all_reached"}


# -- record container ---------------------------------------------------------


def _dummy_record(**overrides):
    state = PhaseState.make(0.0, 0.0, 1.0, 0.0)
    base = dict(
        kind="drift",
        epsilon=1e-3,
        delta=0.1,
        tau_target=100.0,
        tau=100.0,
        drift=0.05,
        max_abs_I2=1e-3,
        max_dist_channel=0.0,
        c_fit=1.0,
        C_fit=5.0,
        lam=0.9,
        theta1_star=0.0,
        I_star=(1.0, 0.0),
        initial=state,
        final=state,
        pass_upper=True,
        pass_lower=True,
        flagged=False,
        orbit=None,
    )
    base.update(overrides)
    return ExperimentRecord(**base)


def test_record_validation_and_row_schema():
    with pytest.raises(ValueError, match="drift"):
        _dummy_record(drift=-0.1)
    with pytest.raises(ValueError, match="epsilon"):
        _dummy_record(epsilon=1.5)
    with pytest.raises(ValueError, match="time"):
        _dummy_record(tau=-1.0)
    rec = _dummy_record()
    assert list(rec.row()) == [
        "epsilon", "delta", "tau", "drift", "maxI2", "c_fit", "pass_upper", "pass_lower",
    ]
    d = rec.as_dict()
    assert d["kind"] == "drift"
    assert d["i1_star"] == 1.0
    assert d["initial"] == [0.0, 0.0, 1.0, 0.0]
    # no orbit, no solver counts and no energy error
    assert "n_rhs_evals" not in d and "n_steps" not in d
    assert "max_energy_error" not in d


def test_record_checks_see_the_measured_values(monkeypatch):
    # a record is built once, so its drift and time checks read the reported numbers
    seen = []
    check = ExperimentRecord.__post_init__

    def spy(self):
        seen.append((self.drift, self.tau))
        check(self)

    monkeypatch.setattr(ExperimentRecord, "__post_init__", spy)
    rec = run_drift_experiment(rd.make_bundle("reduced-moser", 1e-2))
    assert seen == [(rec.drift, rec.tau)] and rec.drift > 0 and rec.tau > 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.drift = 0.0


def test_report_carries_the_orbit_solver_counts():
    b = rd.make_bundle("reduced-moser", 1e-2)
    for rec in (run_drift_experiment(b), run_connecting_experiment(b, 1.0, 1.05)):
        d = rec.as_dict()
        assert d["n_rhs_evals"] == rec.orbit.n_rhs_evals > 0
        assert d["n_steps"] == rec.orbit.n_steps > 0
        energy = rec.orbit.energy
        assert d["max_energy_error"] == np.max(np.abs(energy - energy[0]))
        # the sweep CSV schema is unchanged
        assert "n_rhs_evals" not in rec.row()
