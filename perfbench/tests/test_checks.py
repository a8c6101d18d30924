"""Each benchmark check passes on the right value and fails on a wrong one.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

EPS = 1e-3


def moser_samples(c=0.0, n=65):
    t = np.linspace(0.0, 1e3, n)
    th, I1, I2 = checks.moser_channel_orbit(EPS, c, t)
    theta = np.mod(np.column_stack([th, th]), 1.0)
    return t, theta, np.column_stack([I1, I2])


def test_moser_orbit():
    t, theta, actions = moser_samples()
    checks.moser_orbit(EPS, 0.0, t, theta, actions)
    # a whole turn is the same torus point
    checks.moser_orbit(EPS, 0.0, t, theta + 1.0, actions)
    with pytest.raises(CheckFailed):
        checks.moser_orbit(EPS, 0.0, t, theta, actions + 1e-7)
    with pytest.raises(CheckFailed):
        checks.moser_orbit(EPS, 0.0, t, theta + 1e-7, actions)


def test_generic3_field():
    rng = np.random.default_rng(0)
    states = rng.uniform(0.0, 1.0, size=(8, 4))
    good = [checks.generic3_field(EPS, y) for y in states]
    checks.generic3_field_matches(EPS, states, good)
    with pytest.raises(CheckFailed):
        checks.generic3_field_matches(EPS, states, [v * (1.0 + 1e-11) for v in good])
    bad = [v.copy() for v in good]
    bad[3][2] += 1e-12 * EPS * 10
    with pytest.raises(CheckFailed):
        checks.generic3_field_matches(EPS, states, bad)


def test_generic3_field_is_the_hamiltonian_gradient():
    # the hand field is J grad H, checked by central differences of the hand H
    y = np.array([0.3, 0.7, 1.1, 0.02])
    h = 1e-6

    def H(z):
        return checks.generic3_energy(EPS, *z)

    grad = np.array([(H(y + h * e) - H(y - h * e)) / (2 * h) for e in np.eye(4)])
    expected = np.array([grad[2], grad[3], -grad[0], -grad[1]])
    assert np.allclose(checks.generic3_field(EPS, y), expected, rtol=1e-7, atol=1e-9)


def const_orbit(n=10):
    theta = np.tile([0.25, 0.5], (n, 1))
    actions = np.tile([1.0, 0.0], (n, 1))
    return theta, actions


def test_energy_conserved():
    theta, actions = const_orbit()
    checks.energy_conserved(EPS, theta, actions)
    actions[4, 1] = 1e-6
    with pytest.raises(CheckFailed):
        checks.energy_conserved(EPS, theta, actions)


def test_generic3_drift():
    theta, actions = const_orbit()
    y_end = np.array([0.0, 0.0, 1.0 + 0.2, 0.0])
    tau = checks.DELTA / EPS
    checks.generic3_drift(EPS, checks.DELTA, tau, actions, theta, y_end)
    with pytest.raises(CheckFailed):  # past the upper bound delta
        checks.generic3_drift(EPS, checks.DELTA, tau, actions, theta, y_end + [0, 0, 0.05, 0])
    with pytest.raises(CheckFailed):  # below C delta^2
        checks.generic3_drift(EPS, checks.DELTA, tau, actions, theta, y_end - [0, 0, 0.19, 0])
    with pytest.raises(CheckFailed):
        checks.generic3_drift(EPS, checks.DELTA * 1.01, tau, actions, theta, y_end)
    with pytest.raises(CheckFailed):
        checks.generic3_drift(EPS, checks.DELTA, tau * 0.99, actions, theta, y_end)


def test_reduced_moser_drift():
    actions = np.column_stack([np.linspace(1.0, 1.0 - checks.DELTA, 9), np.zeros(9)])
    y_end = np.array([0.0, 0.0, 1.0 - checks.DELTA, 0.0])
    checks.reduced_moser_drift(checks.DELTA, actions, y_end)
    with pytest.raises(CheckFailed):  # a drift off by 1e-5
        checks.reduced_moser_drift(checks.DELTA, actions, y_end - [0, 0, 1e-5, 0])
    actions[3, 1] = 1e-8
    with pytest.raises(CheckFailed):
        checks.reduced_moser_drift(checks.DELTA, actions, y_end)


def test_connect_checks():
    checks.connect_time(50.0 + 5e-4)
    with pytest.raises(CheckFailed):
        checks.connect_time(50.002)
    checks.connect_reached(1.05, [0, 0, 1.05, 0], "target")
    with pytest.raises(CheckFailed):
        checks.connect_reached(1.05, [0, 0, 1.05, 0], "domain_exit")
    with pytest.raises(CheckFailed):
        checks.connect_reached(1.05, [0, 0, 1.05 + 1e-8, 0], "target")


def test_chi_matches():
    rng = np.random.default_rng(1)
    pts = (rng.uniform(0, 1, 50), rng.uniform(0, 1, 50), rng.uniform(0.5, 1.5, 50), rng.uniform(-1e-3, 1e-3, 50))
    good = checks.generic3_chi(*pts)
    checks.chi_matches(pts, good)
    with pytest.raises(CheckFailed):  # chi scaled by 1 + 1e-9
        checks.chi_matches(pts, good * (1.0 + 1e-9))


def test_chi_solves_the_homological_equation():
    # omega . grad_theta chi = the oscillating modes of f, by central differences
    th1, th2, I1, I2 = 0.3, 0.8, 1.2, 0.01
    h = 1e-6
    d1 = (checks.generic3_chi(th1 + h, th2, I1, I2) - checks.generic3_chi(th1 - h, th2, I1, I2)) / (2 * h)
    d2 = (checks.generic3_chi(th1, th2 + h, I1, I2) - checks.generic3_chi(th1, th2 - h, I1, I2)) / (2 * h)
    osc = 0.2 * math.cos(2 * math.pi * th2) + 0.3 * math.cos(2 * math.pi * (th1 + th2))
    assert abs(I2 * d1 + (I1 - I2) * d2 - osc) < 1e-8


def test_transform_checks():
    start = (np.array([0.1, 0.99999999999999]), np.array([0.5, 0.5]), np.array([1.0, 1.1]), np.array([0.0, 1e-4]))
    moved = (start[0] + 1e-4, start[1], start[2] - 2e-4, start[3])
    checks.displacement_within(start, moved, 3e-4)
    with pytest.raises(CheckFailed):
        checks.displacement_within(start, moved, 1e-4)
    wrapped = (np.mod(start[0] + 1e-13, 1.0), start[1], start[2], start[3])
    checks.round_trip(start, wrapped)  # across the seam, on the circle
    with pytest.raises(CheckFailed):
        checks.round_trip(start, (start[0], start[1], start[2] + 2e-12, start[3]))
    checks.symplectic(1e-7)
    with pytest.raises(CheckFailed):
        checks.symplectic(2e-6)
    checks.sup_ratio(0.44, 0.42)
    with pytest.raises(CheckFailed):
        checks.sup_ratio(0.1, 0.41)


def reduce_payload():
    report = {"matrix": [[1, 1], [0, 1]], "reduced_S": [[0.25, 0.0], [1.75, 0.0]],
              "reduced_S_star": [[0.5, 0.0], [1.5, 0.0]]}
    reduced = {"resonance": {"k": [0, 1], "a": 0.0}}
    return report, reduced


def test_reduce_report():
    report, reduced = reduce_payload()
    checks.reduce_report(report, reduced)
    report["matrix"] = [[2, 1], [0, 1]]
    with pytest.raises(CheckFailed):
        checks.reduce_report(report, reduced)
    report, reduced = reduce_payload()
    report["matrix"] = [[1, 0], [0, 1]]
    with pytest.raises(CheckFailed):  # det 1 but M e2 is not the wave vector
        checks.reduce_report(report, reduced)
    report, reduced = reduce_payload()
    report["reduced_S"][1][1] = 1e-9
    with pytest.raises(CheckFailed):
        checks.reduce_report(report, reduced)
    report, reduced = reduce_payload()
    reduced["resonance"]["a"] = 0.5
    with pytest.raises(CheckFailed):
        checks.reduce_report(report, reduced)


def test_genericity_report():
    checks.genericity_report({"passed": True, "lambda": 0.9})
    with pytest.raises(CheckFailed):
        checks.genericity_report({"passed": True, "lambda": 0.9 + 1e-9})
    with pytest.raises(CheckFailed):
        checks.genericity_report({"passed": False, "lambda": 0.9})


def drift_payload():
    return {"drift": checks.DELTA - 1e-13, "delta": checks.DELTA,
            "optimality": {"passed": True, "f_c1_norm": 1.0}}


def test_moser_drift_report():
    checks.moser_drift_report(drift_payload())
    p = drift_payload()
    p["drift"] -= 1e-5
    with pytest.raises(CheckFailed):  # a drift off by 1e-5
        checks.moser_drift_report(p)
    p = drift_payload()
    p["optimality"]["passed"] = False
    with pytest.raises(CheckFailed):
        checks.moser_drift_report(p)
    p = drift_payload()
    p["optimality"]["f_c1_norm"] = 1.1
    with pytest.raises(CheckFailed):
        checks.moser_drift_report(p)


def test_connect_report():
    checks.connect_report({"reached": True, "tau": 50.0})
    with pytest.raises(CheckFailed):
        checks.connect_report({"reached": False, "tau": 50.0})
    with pytest.raises(CheckFailed):
        checks.connect_report({"reached": True, "tau": 49.9})


def sweep_rows(p=1.0):
    eps = np.array([1e-3, 3e-3, 1e-2])
    tau = 0.1 * eps**-p
    ones = np.ones(3)
    rows = np.column_stack([eps, ones * 0.1, tau, ones * 0.1, ones * 1e-4, ones, ones, ones])
    return rows, checks.fit_exponent(eps, tau)


def test_sweep_artifacts():
    rows, p = sweep_rows()
    assert abs(p - 1.0) < 1e-12
    checks.sweep_artifacts({"p": p, "all_reached": True}, rows)
    with pytest.raises(CheckFailed):  # fit.json disagrees with its own CSV
        checks.sweep_artifacts({"p": p * (1 + 1e-6), "all_reached": True}, rows)
    with pytest.raises(CheckFailed):
        checks.sweep_artifacts({"p": p, "all_reached": False}, rows)
    rows2, p2 = sweep_rows(1.2)
    with pytest.raises(CheckFailed):
        checks.sweep_artifacts({"p": p2, "all_reached": True}, rows2)
    rows[1, 7] = 0
    with pytest.raises(CheckFailed):
        checks.sweep_artifacts({"p": p, "all_reached": True}, rows)


def test_sweep_plot():
    fit = {"A": 0.1060932, "p": 0.9945}
    script = f"plot 'sweep.csv' using 1:3 with points title 'measured', {fit['A']!r}*x**(-{fit['p']!r}) title 'fit'"
    checks.sweep_plot(script, fit)
    with pytest.raises(CheckFailed):
        checks.sweep_plot(script, {"A": fit["A"], "p": 1.0})


def test_simulate_orbit():
    t, theta, actions = moser_samples(c=1.0)
    rows = np.column_stack([t, theta, actions])
    checks.simulate_orbit(rows)
    rows[7, 3] += 1e-7
    with pytest.raises(CheckFailed):
        checks.simulate_orbit(rows)


def test_same_bytes():
    first = {"drift/orbit.csv": b"t,theta1\n0,0\n", "sweep/fit.json": b"{}\n"}
    checks.same_bytes(first, dict(first))
    changed = dict(first)
    changed["drift/orbit.csv"] = b"t,theta1\n0,1\n"  # one artifact byte changed
    with pytest.raises(CheckFailed):
        checks.same_bytes(first, changed)
    with pytest.raises(CheckFailed):
        checks.same_bytes(first, {"drift/orbit.csv": first["drift/orbit.csv"]})
