"""Adaptive orbit integration, generator flows and symplecticity checks.

One in-repo DOP853 stepper (scipy's step controller and interpolant on the
tableau vendored in dop853.py) has two drivers.  integrate steps an orbit
of the full Hamiltonian, angles on the universal cover and wrapped only
when sampled.  It builds the interpolant only on steps that hold sample
times or a sign change of a termination condition (domain exit, channel
exit, target drift, stopping times), which is root-found on it by a port of
scipy's brentq.  flow_points steps blocks of points of a generator flow as
stacked systems, each block's first step spanning the whole flow time, and
checks the action window after every accepted step; lie_flow is its
one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dop853
from .blas import serial_blas
from .errors import DomainError, FlowEscapeError, IntegrationError
from .fourier import BLOCK_VALUES
from .torus import PhaseState, circle_delta, wrap


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and sampling knobs for orbit integration."""

    rtol: float = 1e-10
    atol: float = 1e-10
    n_samples: int = 513

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class StopEvent:
    """Named termination condition g(t, y) = 0 for orbit runs.

    direction follows scipy's convention; flags marks whether triggering the
    event means the run failed (left its domain) rather than succeeded
    (reached its target).
    """

    name: str
    fn: Callable
    direction: float = 0.0
    flags: bool = False


@dataclass
class OrbitRecord:
    """Sampled orbit with diagnostics.

    theta holds wrapped angle samples, y_end the final state on the universal
    cover (angles unwrapped).  dist_channel is the distance of I1 to the
    working subsegment when a channel interval was supplied, else NaN.
    """

    t: np.ndarray
    theta: np.ndarray
    actions: np.ndarray
    energy: np.ndarray
    abs_I2: np.ndarray
    dist_channel: np.ndarray
    flagged: bool
    stop_event: Optional[str]
    t_end: float
    y_end: np.ndarray
    n_steps: int
    n_rhs_evals: int
    epsilon: Optional[float] = None

    @property
    def initial_state(self) -> PhaseState:
        return PhaseState.make(self.theta[0, 0], self.theta[0, 1], *self.actions[0])

    @property
    def max_energy_error(self) -> float:
        """Largest |H - H(t0)| over the samples; NaN when the energy was not sampled."""
        return float(np.max(np.abs(self.energy - self.energy[0])))

    @property
    def final_state(self) -> PhaseState:
        return PhaseState.make(wrap(self.y_end[0]), wrap(self.y_end[1]), self.y_end[2], self.y_end[3])

    def to_csv(self, path):
        header = "t,theta1,theta2,I1,I2,energy,absI2,dist_channel"
        cols = np.column_stack(
            [self.t, self.theta, self.actions, self.energy, self.abs_I2, self.dist_channel]
        )
        np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=header, comments="")


def _interval_excess(I1, interval):
    """Distance of I1 to the closed interval (0 inside it)."""
    lo, hi = interval
    return np.maximum(0.0, np.maximum(lo - np.asarray(I1), np.asarray(I1) - hi))


def _channel_distance(I1, I2, interval):
    """Sup-norm distance to the channel segment {I2 = 0, I1 in interval}."""
    return np.maximum(_interval_excess(I1, interval), np.abs(np.asarray(I2)))


# DOP853 on the vendored tableau (dop853.py): a step fills 13 stage rows,
# the last of them f at the new point.
_A, _B, _C, _E3, _E5, _D = dop853.A, dop853.B, dop853.C, dop853.E3, dop853.E5, dop853.D
_STAGES = dop853.N_STAGES + 1
_EXPONENT = -1 / (dop853.ERROR_ESTIMATOR_ORDER + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EPS = float(np.finfo(float).eps)


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _error_norm(K, h, scale):
    """DOP853's RMS error norm of a step: the 5th-order estimate, damped by the 3rd."""
    err5 = np.linalg.norm((_E5 @ K) / scale) ** 2
    err3 = np.linalg.norm((_E3 @ K) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))


class _Dop853:
    """scipy's DOP853, step for step, for dy/dt = fun(t, y) from t0 toward t_bound.

    As in scipy, rtol is at least 100 eps and the step size is unbounded.
    Without h_abs the first step is scipy's initial-step choice; a given h_abs
    that is too large is rejected and shrunk like any step.  step() returns
    False and leaves the state as it was when the step falls below 10 ulp of
    t.  dense() is scipy's interpolant on the last step (Hairer, Norsett and
    Wanner, Sec. II.6) at 3 more evaluations; nfev counts calls of fun.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, h_abs=None):
        self.fun, self.t_bound, self.rtol, self.atol = fun, t_bound, max(rtol, 100 * _EPS), atol
        self.direction = np.sign(t_bound - t0)
        self.t, self.y = t0, y0
        self.f = fun(t0, y0)
        self.nfev = 1
        self.h_abs = self._initial_step() if h_abs is None else h_abs
        self.K = np.empty((_STAGES, y0.size))

    @property
    def running(self) -> bool:
        return self.direction * (self.t - self.t_bound) < 0

    def _initial_step(self):
        """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4)."""
        t, y, f, direction = self.t, self.y, self.f, self.direction
        interval = abs(self.t_bound - t)
        scale = self.atol + np.abs(y) * self.rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t + h0 * direction, y + h0 * direction * f)
        self.nfev += 1
        d2 = _rms((f1 - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        return min(100 * h0, h1, interval)

    def step(self) -> bool:
        t, y, fun, K, direction = self.t, self.y, self.fun, self.K, self.direction
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return False
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            for s in range(1, _STAGES - 1):
                K[s] = fun(t + _C[s] * h, y + (_A[s, :s] @ K[:s]) * h)
            y_new = y + h * (_B @ K[:-1])
            f_new = K[-1] = fun(t + h, y_new)
            self.nfev += _STAGES - 1
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error = _error_norm(K, h, scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
            rejected = True
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return True

    def dense(self):
        """y(t) on the last step as a callable of a time or a 1-D array of times."""
        h, t_old, y_old = self.h, self.t_old, self.y_old
        # the 3 extra rows go on a copy: flow blocks never call dense() and keep 13
        K = np.concatenate([self.K, np.empty((len(dop853.C_EXTRA), y_old.size))])
        for s, (a, c) in enumerate(zip(dop853.A_EXTRA, dop853.C_EXTRA), start=_STAGES):
            K[s] = self.fun(t_old + c * h, y_old + np.dot(K[:s].T, a[:s]) * h)
            self.nfev += 1
        delta = self.y - y_old
        F = np.empty((3 + len(_D), delta.size))
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (self.f + K[0])
        F[3:] = h * np.dot(_D, K)

        def sol(t):
            t = np.asarray(t)
            x = (t[..., None] - t_old) / h
            y = np.zeros(t.shape + y_old.shape)
            for i, row in enumerate(F[::-1]):
                y += row
                y *= x if i % 2 == 0 else 1 - x
            return (y + y_old).T

        return sol


def _crosses(g, g_new, direction):
    """scipy's event rule: g reaches or passes 0 during the step, in the event's direction."""
    up, down = g <= 0 <= g_new, g >= 0 >= g_new
    return up if direction > 0 else down if direction < 0 else up or down


# event roots to 4 ulp (xtol = rtol = 4 eps) in at most 100 iterations
_ROOT_TOL, _ROOT_ITER = 4 * _EPS, 100


def _brentq(f, xa, xb):
    """Root of f on [xa, xb]: scipy's C brentq (Brent 1973, ch. 4), line for line.

    An end where f is 0 is returned as it is.  Ends of one sign, a NaN value
    of f or no convergence in _ROOT_ITER iterations raise IntegrationError.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise IntegrationError(f"event function is NaN at t = {x!r}; cannot find its root")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise IntegrationError(f"event function has one sign at t = {xpre!r} and {xcur!r}")
    for _ in range(_ROOT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where den underflows to 0, C's quotient is inf or NaN: never a short step
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise IntegrationError(f"event root not found in {_ROOT_ITER} iterations, last t = {xcur!r}")


def integrate(
    rhs: Callable,
    y0,
    t_span,
    config: IntegratorConfig | None = None,
    *,
    domain_radius: float | None = None,
    stop_events: tuple = (),
    energy_fn: Callable | None = None,
    channel_interval: tuple | None = None,
    epsilon: float | None = None,
) -> OrbitRecord:
    """Integrate dy/dt = rhs(t, y) over t_span with sampled diagnostics.

    The record ends at the first stop event (the earliest root in the
    direction of time) or at t1.  A span that is not finite and nonzero
    raises ValueError, a start outside domain_radius DomainError, and a step
    size collapsing (for example in a blow-up) IntegrationError.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt as an array, on flat states [theta1, theta2, I1, I2].
    y0 : initial flat state; angles are taken as given (canonical lift).
    t_span : finite (t0, t1) with t1 != t0; t1 < t0 integrates backward.
    config : IntegratorConfig, defaults to 1e-10 tolerances and 513 samples.
    domain_radius : sup-norm action bound; exiting it terminates and flags.
    stop_events : additional StopEvent terminations.
    energy_fn : callable on sampled flat states, recorded per sample.
    channel_interval : (lo, hi) of the working subsegment in I1 for the
        dist_channel diagnostic.
    """
    config = config or IntegratorConfig()
    y0 = np.asarray(y0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not np.isfinite(t1 - t0) or t1 == t0:
        raise ValueError(f"integration span must be finite and nonzero, got ({t0!r}, {t1!r})")

    events = list(stop_events)
    if domain_radius is not None:
        radius = float(domain_radius)
        if max(abs(y0[2]), abs(y0[3])) > radius:
            raise DomainError(
                f"initial actions ({y0[2]:.6g}, {y0[3]:.6g}) lie outside the domain radius {radius:.6g}"
            )

        def domain_exit(_t, y):
            return radius - max(abs(y[2]), abs(y[3]))

        events.insert(0, StopEvent("domain_exit", domain_exit, direction=-1.0, flags=True))

    stepper = _Dop853(rhs, t0, y0, t1, config.rtol, config.atol)
    t_eval = np.linspace(t0, t1, config.n_samples)
    # sample times ascending in the direction of time; the first i are taken
    keys = stepper.direction * t_eval
    ts, ys, i, n_steps, stop = [], [], 0, 0, None
    g = [event.fn(t0, y0) for event in events]
    while stepper.running and stop is None:
        if not stepper.step():
            raise IntegrationError(
                "integration failed: Required step size is less than spacing between numbers."
            )
        n_steps += 1
        t, y, sol = stepper.t, stepper.y, None
        g_new = [event.fn(t, y) for event in events]
        fired = [ev for ev, a, b in zip(events, g, g_new) if _crosses(a, b, ev.direction)]
        if fired:
            sol = stepper.dense()
            hits = [(_brentq(lambda s, fn=ev.fn: fn(s, sol(s)), stepper.t_old, t), ev) for ev in fired]
            t, stop = min(hits, key=lambda hit: stepper.direction * hit[0])
            y = sol(t)
        g = g_new
        i_new = np.searchsorted(keys, stepper.direction * t, side="right")
        times = t_eval[i:i_new]
        if times.size:
            sol = sol or stepper.dense()
            ts.append(times)
            ys.append(sol(times))
            i = i_new

    if stop is None:
        t_end, y_end = t1, (sol or stepper.dense())(t1)
    else:
        t_end, y_end = float(t), y
    ts, ys = np.hstack(ts), np.hstack(ys)
    if ts[-1] != t_end:
        ts = np.append(ts, t_end)
        ys = np.column_stack([ys, y_end])

    theta = wrap(ys[:2].T)
    actions = ys[2:].T
    energy = (
        np.asarray(energy_fn(np.column_stack([theta, actions])), dtype=float)
        if energy_fn is not None
        else np.full(ts.shape, np.nan)
    )
    dist = (
        _channel_distance(actions[:, 0], actions[:, 1], channel_interval)
        if channel_interval is not None
        else np.full(ts.shape, np.nan)
    )
    flagged = stop is not None and stop.flags
    return OrbitRecord(
        t=ts,
        theta=theta,
        actions=actions,
        energy=energy,
        abs_I2=np.abs(actions[:, 1]),
        dist_channel=np.asarray(dist, dtype=float),
        flagged=flagged,
        stop_event=stop.name if stop is not None else None,
        t_end=t_end,
        y_end=np.asarray(y_end, dtype=float),
        n_steps=n_steps,
        n_rhs_evals=stepper.nfev,
        epsilon=epsilon,
    )


def lie_flow(
    chi,
    scale: float,
    t: float,
    state: PhaseState,
    *,
    window=None,
    displacement_bound: float | None = None,
) -> PhaseState:
    """Flow a state for time t under the Hamiltonian vector field of scale*chi.

    This is the one-point case of :func:`flow_points` at its default
    tolerances, which checks the window after every accepted step; when a
    displacement bound is given (the containment budget for |t| <= 1) the
    total move is checked too.  Violations raise FlowEscapeError.
    """
    if t == 0.0 or chi.is_zero:
        return state
    y0 = state.as_array()
    y1 = np.array(flow_points(chi, scale, t, *y0, window=window))
    if displacement_bound is not None and abs(t) <= 1.0:
        move = float(np.max(np.abs(y1 - y0)))
        if move > displacement_bound * (1.0 + 1e-9):
            raise FlowEscapeError(
                f"generator flow moved {move:.3e}, budget {displacement_bound:.3e}"
            )
    return PhaseState.make(wrap(y1[0]), wrap(y1[1]), y1[2], y1[3])


# flow_points steps blocks of this many points.  A block's step fills a
# (13, 4 x points) stage table; at this size it holds about BLOCK_VALUES
# values (8 MB), so the stepper's working set stays near the cache and its
# memory is bounded whatever the number of points.
_BLOCK = BLOCK_VALUES // (4 * _STAGES)


@serial_blas()
def flow_points(
    chi,
    scale: float,
    t: float,
    theta1,
    theta2,
    I1,
    I2,
    *,
    rtol: float = 1e-12,
    atol: float = 1e-12,
    window=None,
):
    """Vectorized generator flow over arrays of initial points.

    Returns (theta1, theta2, I1, I2) arrays of the same shape with unwrapped
    angles.  Points are integrated in blocks of _BLOCK points, each one
    stacked system stepped by DOP853.  A block's shared adaptive step is
    controlled by the RMS error norm over the block, not by its worst point.
    Every block first tries one step over the whole time |t|, which the
    controller rejects and shrinks if it is too large; a near-identity flow
    takes it in 13 evaluations, and a block's result depends on its points
    alone.  When a window is given every point is checked against it after
    every accepted step, and leaving it raises FlowEscapeError, as does a
    step that collapses.  The stage products run on one BLAS thread.
    """
    shape = np.broadcast(np.asarray(theta1), np.asarray(I1)).shape
    flat = [
        np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(-1)
        for v in (theta1, theta2, I1, I2)
    ]
    if t == 0.0 or chi.is_zero:
        return tuple(v.reshape(shape).copy() for v in flat)

    t = float(t)
    n = flat[0].size
    out = np.empty((4, n))
    rhs = chi.flow_rhs(scale)
    pad = None if window is None else 1e-12 + 1e-9 * window.sup_radius
    for start in range(0, n, _BLOCK):
        block = np.stack([v[start : start + _BLOCK] for v in flat])
        m = block.shape[1]

        def stacked(_t, y, _m=m):
            return rhs(_t, y.reshape(4, _m)).ravel()

        stepper = _Dop853(stacked, 0.0, block.ravel(), t, rtol, atol, abs(t))
        while stepper.running:
            if not stepper.step():
                raise FlowEscapeError(
                    f"generator flow could not be integrated: the step collapsed at t = {stepper.t:.17g}"
                )
            end = stepper.y.reshape(4, m)
            if pad is not None and not np.all(window.contains(end[2], end[3], margin=pad)):
                raise FlowEscapeError("generator flow left its action window")
        out[:, start : start + m] = stepper.y.reshape(4, m)
        # free this block's stage table before the next block allocates its own
        del stepper
    return tuple(v.reshape(shape) for v in out)


_OMEGA = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


# the central-difference step of symplecticity_defect
_JACOBIAN_STEP = 2.0 ** -13


def symplecticity_defect(map_fn, state: PhaseState) -> float:
    """Sup-norm of J^T Omega J - Omega for the map's central-difference Jacobian.

    map_fn takes and returns a PhaseState.  Angle differences in the output
    are taken on the torus so a wrap boundary cannot pollute the Jacobian.
    """
    y0 = state.as_array()
    J = np.empty((4, 4))
    for col in range(4):
        yp = y0.copy()
        ym = y0.copy()
        yp[col] += _JACOBIAN_STEP
        ym[col] -= _JACOBIAN_STEP
        zp = map_fn(PhaseState.from_array(yp)).as_array()
        zm = map_fn(PhaseState.from_array(ym)).as_array()
        diff = zp - zm
        diff[:2] = circle_delta(zp[:2], zm[:2])
        J[:, col] = diff / (2.0 * _JACOBIAN_STEP)
    defect = J.T @ _OMEGA @ J - _OMEGA
    return float(np.max(np.abs(defect)))
