"""Correctness checks for the benchmark workloads.

Every check compares a program output with a computation written here from
the catalog definitions, or with a property the method must have.  None of
them calls into ``resodrift``: the workloads hand over plain numbers, arrays,
parsed artifacts and bytes, and a check raises :class:`CheckFailed` when the
output is wrong.  ``tests/test_checks.py`` hands each check a wrong value.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Closed forms of the catalog systems used below, derived by hand:
#   moser:          h = I1^2/2 - I2^2/2,   f = sin(2 pi (th1 - th2)) / (2 pi)
#   reduced-moser:  h = I1 I2 - I2^2/2,    f = sin(2 pi th1) / (2 pi)
#   generic3:       h = I1 I2 - I2^2/2,
#                   f = sin(2 pi th1)/(2 pi) + 0.2 cos(2 pi th2) + 0.3 cos(2 pi (th1 + th2))
# The channel is I2 = 0 with S1* = [0.5, 1.5].  For both reduced systems the
# resonant average is sin(2 pi th1)/(2 pi), so lambda = 0.9 max|cos| = 0.9, the
# scan point is I1* = 1 (midpoint of S1*, delta* = 0.5), and the default drift
# budget is delta = min(lambda / 4, delta*) = 0.225.
LAMBDA = 0.9
DELTA = 0.225


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


class KnownFault(Exception):
    """An operation reproduced a known program fault; it counts as failed."""


def _require(ok: bool, message: str) -> None:
    if not bool(ok):
        raise CheckFailed(message)


def circle_delta(a, b):
    """Signed difference of angles on the unit circle, in [-1/2, 1/2)."""
    return np.mod(np.asarray(a, float) - np.asarray(b, float) + 0.5, 1.0) - 0.5


# -- closed forms ------------------------------------------------------------------


def moser_channel_orbit(eps: float, c: float, t):
    """Orbit of the moser saddle from theta = (0, 0), I = (c, -c).

    I1 + I2 and th1 - th2 are conserved, so the resonant forcing is the
    constant -eps cos(0): I(t) = (c - eps t, -c + eps t) and both angles are
    c t - eps t^2 / 2 (unwrapped).
    """
    t = np.asarray(t, float)
    theta = c * t - 0.5 * eps * t**2
    return theta, c - eps * t, -c + eps * t


def generic3_energy(eps: float, theta1, theta2, I1, I2):
    """H = h + eps f of generic3, evaluated from the closed form."""
    f = (
        np.sin(TWO_PI * theta1) / TWO_PI
        + 0.2 * np.cos(TWO_PI * theta2)
        + 0.3 * np.cos(TWO_PI * (theta1 + theta2))
    )
    return I1 * I2 - 0.5 * I2**2 + eps * f


def generic3_field(eps: float, y) -> np.ndarray:
    """Hamiltonian vector field of generic3 at a flat state [th1, th2, I1, I2]."""
    th1, th2, I1, I2 = (float(v) for v in y)
    s12 = math.sin(TWO_PI * (th1 + th2))
    return np.array(
        [
            I2,
            I1 - I2,
            -eps * (math.cos(TWO_PI * th1) - 0.3 * TWO_PI * s12),
            -eps * (-0.2 * TWO_PI * math.sin(TWO_PI * th2) - 0.3 * TWO_PI * s12),
        ]
    )


def generic3_chi(theta1, theta2, I1, I2):
    """First averaging generator of generic3, solved by hand mode by mode.

    omega = (I2, I1 - I2); the oscillating modes (0, 1) and (1, 1) have
    divisors 2 pi (I1 - I2) and 2 pi I1.
    """
    return 0.2 * np.sin(TWO_PI * theta2) / (TWO_PI * (I1 - I2)) + 0.3 * np.sin(
        TWO_PI * (theta1 + theta2)
    ) / (TWO_PI * I1)


# -- orbit checks ------------------------------------------------------------------


def moser_orbit(eps, c, t, theta, actions, tol=1e-8):
    """Sampled moser orbit within tol of the closed form; angles on the circle."""
    th, I1, I2 = moser_channel_orbit(eps, c, t)
    actions = np.asarray(actions, float)
    theta = np.asarray(theta, float)
    err_I = float(np.max(np.abs(actions - np.column_stack([I1, I2]))))
    err_th = float(np.max(np.abs(circle_delta(theta, np.column_stack([th, th])))))
    _require(err_I <= tol, f"moser actions off the closed form by {err_I:.3e} > {tol:g}")
    _require(err_th <= tol, f"moser angles off the closed form by {err_th:.3e} > {tol:g}")


def generic3_field_matches(eps, states, values, rtol=1e-12):
    """Program field equals the hand-derived field at every state.

    Each row is compared relative to its size, with the natural scale of the
    row (1 for the angle rows, eps for the action rows) as the floor.
    """
    floor = np.array([1.0, 1.0, eps, eps])
    for y, v in zip(states, values):
        ref = generic3_field(eps, y)
        err = np.abs(np.asarray(v, float) - ref) / (np.abs(ref) + floor)
        worst = float(np.max(err))
        _require(worst <= rtol, f"generic3 field at {list(y)} off by {worst:.3e} relative")


def drift_bounds(drift, delta, C=1.0):
    """The drift theorem's window C delta^2 <= drift <= delta."""
    _require(
        C * delta**2 <= drift <= delta,
        f"drift {drift!r} outside [C delta^2, delta] = [{C * delta**2!r}, {delta!r}]",
    )


def energy_conserved(eps, theta, actions, bound=1e-8):
    """|H - H(0)| along a generic3 orbit stays within bound.

    The bound is 100 times the integrator tolerance (1e-10 absolute and
    relative); H is evaluated from the closed form on the sampled states.
    """
    theta = np.asarray(theta, float)
    actions = np.asarray(actions, float)
    H = generic3_energy(eps, theta[:, 0], theta[:, 1], actions[:, 0], actions[:, 1])
    worst = float(np.max(np.abs(H - H[0])))
    _require(worst <= bound, f"energy error {worst:.3e} exceeds {bound:g}")


def generic3_drift(eps, delta, t_end, actions, theta, y_end):
    """generic3 drift: budget delta, run time delta/eps, drift window, energy."""
    _require(abs(delta - DELTA) <= 1e-12, f"drift budget {delta!r}, expected {DELTA!r}")
    tau = DELTA / eps
    _require(abs(t_end - tau) <= 1e-9 * tau, f"run ended at t = {t_end!r}, expected {tau!r}")
    drift = abs(float(y_end[2]) - float(np.asarray(actions)[0, 0]))
    drift_bounds(drift, DELTA)
    energy_conserved(eps, theta, actions)


def reduced_moser_drift(delta, actions, y_end, tol=1e-6, i2_tol=1e-9):
    """reduced-moser saturates the upper bound: drift = delta, I2 stays 0."""
    _require(abs(delta - DELTA) <= 1e-12, f"drift budget {delta!r}, expected {DELTA!r}")
    actions = np.asarray(actions, float)
    drift = abs(float(y_end[2]) - float(actions[0, 0]))
    _require(abs(drift - DELTA) <= tol, f"|drift - delta| = {abs(drift - DELTA):.3e} > {tol:g}")
    max_i2 = float(np.max(np.abs(actions[:, 1])))
    _require(max_i2 <= i2_tol, f"max|I2| = {max_i2:.3e} > {i2_tol:g}")


def connect_time(tau, rho=0.05, eps=1e-3, tol=1e-3):
    """reduced-moser drifts at rate eps, so the connect time is rho / eps."""
    _require(abs(tau - rho / eps) <= tol, f"connect time {tau!r}, expected {rho / eps!r} +- {tol:g}")


def connect_reached(target, y_end, stop_event, tol=1e-9):
    """A connecting run stops on its target action."""
    _require(stop_event == "target", f"connect run stopped on {stop_event!r}")
    miss = abs(float(y_end[2]) - target)
    _require(miss <= tol, f"connect run ended {miss:.3e} from the target action")


# -- normal-form checks ------------------------------------------------------------


def chi_matches(points, values, rtol=1e-12):
    """One-step generator equals its closed form at the sampled points."""
    ref = generic3_chi(*points)
    err = float(np.max(np.abs(np.asarray(values, float) - ref)))
    scale = float(np.max(np.abs(ref)))
    _require(err <= rtol * scale, f"chi off its closed form by {err:.3e} (scale {scale:.3e})")


def max_move(start, end) -> float:
    """Sup-norm distance between point sets (th1, th2, I1, I2), angles on the circle."""
    moves = [np.max(np.abs(circle_delta(end[i], start[i]))) for i in (0, 1)]
    moves += [np.max(np.abs(np.asarray(end[i], float) - np.asarray(start[i], float))) for i in (2, 3)]
    return float(max(moves))


def displacement_within(start, end, bound):
    move = max_move(start, end)
    _require(move <= bound, f"transform moved a point by {move:.3e} > {bound:.3e}")


def round_trip(start, back, tol=1e-12):
    miss = max_move(start, back)
    _require(miss <= tol, f"inverse transform misses by {miss:.3e} > {tol:g}")


def symplectic(defect, tol=1e-6):
    _require(defect <= tol, f"symplecticity defect {defect:.3e} > {tol:g}")


def sup_ratio(sup_a, sup_b, limit=4.0):
    """sup|f'| is O(1) in eps: its ratio between two eps stays bounded."""
    ratio = max(sup_a, sup_b) / min(sup_a, sup_b)
    _require(ratio <= limit, f"sup|f'| ratio {ratio:.3f} > {limit:g}")


# -- CLI artifact checks -----------------------------------------------------------


def exit_ok(code):
    _require(code == 0, f"command exited {code}")


def reduce_report(report: dict, reduced: dict, k=(1, 1)):
    """Unimodular matrix with M e2 = k, and the channel mapped onto {I2 = 0}."""
    M = report["matrix"]
    _require(all(float(v) == int(v) for row in M for v in row), f"matrix {M} is not integer")
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    _require(det in (1, -1), f"det M = {det}, expected +-1")
    col = (M[0][1], M[1][1])
    _require(col in (tuple(k), (-k[0], -k[1])), f"M e2 = {col}, expected +-{tuple(k)}")
    for p in list(report["reduced_S"]) + list(report["reduced_S_star"]):
        _require(abs(p[1]) <= 1e-12, f"reduced segment point {p} is off the line I2 = 0")
    res = reduced["resonance"]
    _require(list(res["k"]) in ([0, 1], [0, -1]) and res["a"] == 0.0,
             f"reduced resonance is k = {res['k']}, a = {res['a']}")


def genericity_report(payload: dict):
    _require(payload["passed"], "genericity scan failed")
    _require(abs(payload["lambda"] - LAMBDA) <= 1e-12, f"lambda {payload['lambda']!r}, expected {LAMBDA}")


def moser_drift_report(payload: dict, tol=1e-6):
    """Reduced moser drift saturates delta; the audit bound is delta |f|_C1 = delta."""
    drift, delta = payload["drift"], payload["delta"]
    _require(abs(delta - DELTA) <= 1e-12, f"drift budget {delta!r}, expected {DELTA!r}")
    _require(abs(drift - DELTA) <= tol, f"|drift - delta| = {abs(drift - DELTA):.3e} > {tol:g}")
    audit = payload["optimality"]
    _require(audit["passed"], "optimality audit failed")
    # |f|_C1 of sin(2 pi th1)/(2 pi) is max|cos| = 1, attained on the grid at th1 = 0
    _require(abs(audit["f_c1_norm"] - 1.0) <= 1e-9, f"|f|_C1 = {audit['f_c1_norm']!r}, expected 1")
    _require(drift <= DELTA * 1.0 + tol, f"drift {drift!r} exceeds delta |f|_C1 + {tol:g}")


def connect_report(payload: dict):
    _require(payload["reached"], "connect run did not reach its target")
    connect_time(payload["tau"])


def fit_exponent(eps, tau) -> float:
    """Least-squares slope of log tau against log eps, negated."""
    x = [math.log(e) for e in eps]
    y = [math.log(t) for t in tau]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    return -sxy / sxx


def sweep_artifacts(fit: dict, rows: np.ndarray, lo=0.9, hi=1.1):
    """Time-scaling exponent near 1, every run reached, fit matches the CSV."""
    p = fit["p"]
    _require(lo <= p <= hi, f"sweep exponent p = {p!r} outside [{lo}, {hi}]")
    _require(fit["all_reached"], "not every sweep run reached its target")
    rows = np.atleast_2d(rows)
    _require(bool(np.all(rows[:, 7] == 1)), "a sweep row has pass_lower = 0")
    p_csv = fit_exponent(rows[:, 0], rows[:, 2])
    _require(abs(p_csv - p) <= 1e-9 * abs(p), f"fit.json p = {p!r}, sweep.csv gives {p_csv!r}")


def sweep_plot(script: str, fit: dict):
    """The --plots script draws sweep.csv with the fitted law of fit.json."""
    law = f"{fit['A']!r}*x**(-{fit['p']!r})"
    _require("plot 'sweep.csv'" in script and law in script,
             f"sweep.gp does not plot sweep.csv with the fitted law {law}")


def simulate_orbit(rows: np.ndarray, eps=1e-3, c=1.0, tol=1e-8):
    """orbit.csv of the moser simulation from its channel midpoint (c, -c)."""
    rows = np.atleast_2d(rows)
    moser_orbit(eps, c, rows[:, 0], rows[:, 1:3], rows[:, 3:5], tol)


def same_bytes(first: dict, second: dict):
    """Artifacts of two identical invocations are byte-identical."""
    _require(sorted(first) == sorted(second),
             f"artifact sets differ: {sorted(set(first) ^ set(second))}")
    for name in sorted(first):
        _require(first[name] == second[name], f"artifact {name} differs between passes")
