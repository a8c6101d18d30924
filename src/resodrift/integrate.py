"""Adaptive orbit integration, generator flows and symplecticity checks.

One in-repo DOP853 stepper (scipy's step controller and interpolant on the
tableau vendored in dop853.py) has two drivers.  The products that sum
over stages are ndarray.dot calls, which keep scipy's bits; a single
state, y of shape (4,), does the rest of a step in Python floats, and a
block of points in numpy arrays.
integrate steps an orbit of the full Hamiltonian, angles on the universal
cover and wrapped only when sampled.  It builds the interpolant only on
steps that hold sample times or a sign change of a termination condition
(domain exit, channel exit, target drift, stopping times), which is
root-found on it by a port of scipy's brentq.  flow_points steps blocks
of points of a generator flow as stacked systems, each block's first step
spanning the whole flow time, and checks the action window after every
accepted step; lie_flow is its one-point case.
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
    (reached its target).  fn reads y by index: an orbit passes a list of
    four floats at the ends of its steps and an array at interpolated times.
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
# from 2**52 on a float64 angle keeps no fractional part, so its phases are rounding noise
_ANGLE_LIMIT = 2.0**52


def _norm(x):
    """np.linalg.norm of a 1-D real array, as numpy takes it: the square root of x.x."""
    return math.sqrt(x.dot(x))


def _rms(x):
    return _norm(x) / x.size**0.5


def _error_norm(K, h, scale):
    """DOP853's RMS error norm of a step: the 5th-order estimate, damped by the 3rd."""
    err5 = _norm(_E5.dot(K) / scale) ** 2
    err3 = _norm(_E3.dot(K) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * len(scale))


def _finite_step(h):
    """h, a first step size; IntegrationError where it is zero or not finite."""
    if not 0 < h < math.inf:
        raise IntegrationError(f"no initial step can be chosen from this start: it comes out {h!r}")
    return h


def _larger(a, b):
    """np.maximum of two floats: the larger, and NaN if either is NaN."""
    return a if a >= b or a != a else b


class _Dop853:
    """scipy's DOP853, step for step, for dy/dt = fun(t, y) from t0 toward t_bound.

    As in scipy, rtol is at least 100 eps and the step size is unbounded.
    Without h_abs the first step is scipy's initial-step choice, and one that
    comes out zero or not finite raises IntegrationError; a given h_abs that
    is too large is rejected and shrunk like any step.  step() returns False
    and leaves the state as it was when the step falls below 10 ulp of t.
    nfev counts calls of fun.

    Times, step sizes and the direction are Python floats, and each stage's
    node, weights and rows of the stage table are looked up once per
    stepper.  The products that sum over stages stay numpy, whose bits a
    Python sum would not keep: the stage sums a_s . K, B . K, E5 . K and
    E3 . K, the norms' dot and dense()'s extra stages and D . K.  Each is an
    ndarray.dot call, which reaches BLAS as scipy's np.dot does without the
    dispatch of the @ operator.

    A single state, y0 of shape (4,), is stepped in Python floats around
    those products, and any other shape (a flow block) in numpy arrays.  A
    single state's y, f and interpolant rows are floats; its stage points,
    update, error scale and the interpolant's Horner sum are float
    arithmetic.  Its float entry (t, theta1, theta2, I1, I2) -> four rates
    is fun.single_state() where fun has one (SystemBundle.rhs() gives one
    generated function), and otherwise fun on a 4-element array, listed;
    the four rates are written straight into the stage table.  IEEE float
    *, +, / and abs round as numpy's elementwise ufuncs do, so both shapes
    give scipy's bits.  Only a single state has an interpolant: dense() is
    scipy's on the last step (Hairer, Norsett and Wanner, Sec. II.6) at 3
    more evaluations.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, h_abs=None):
        t0, t_bound = float(t0), float(t_bound)
        self.fun, self.t_bound, self.rtol, self.atol = fun, t_bound, max(rtol, 100 * _EPS), atol
        self.direction = float(np.sign(t_bound - t0))
        self.t, self.y = t0, y0
        self.f = fun(t0, y0)
        self.nfev = 1
        self.h_abs = float(self._initial_step() if h_abs is None else h_abs)
        self._floats = y0.shape == (4,)
        # a single state keeps the interpolant's 3 extra rows below the 13 a step fills
        table = np.empty((_STAGES + (len(dop853.C_EXTRA) if self._floats else 0), y0.size))
        self.K = K = table[:_STAGES]
        # stage s: its index, node c_s, weights a_sj (j < s) and the rows it weighs
        self._stages = [(s, float(_C[s]), _A[s, :s].copy(), K[:s]) for s in range(1, _STAGES - 1)]
        if self._floats:
            self._single = fun.single_state() if hasattr(fun, "single_state") else \
                lambda t, *y: fun(t, np.array(y)).tolist()
            self.y, self.f, self._table = y0.tolist(), self.f.tolist(), table
            # extra stage s: its index, node, the rows it weighs, transposed, and its weights
            self._extra = [(s, float(c), table[:s].T, a[:s])
                           for s, (a, c) in enumerate(zip(dop853.A_EXTRA, dop853.C_EXTRA), start=_STAGES)]

    @property
    def running(self) -> bool:
        return self.direction * (self.t - self.t_bound) < 0

    def _initial_step(self):
        """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4), on arrays."""
        t, y, f, direction = self.t, self.y, self.f, self.direction
        interval = abs(self.t_bound - t)
        scale = self.atol + np.abs(y) * self.rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = _finite_step(min(h0, interval))
        f1 = self.fun(t + h0 * direction, y + h0 * direction * f)
        self.nfev += 1
        d2 = _rms((f1 - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        return _finite_step(min(100 * h0, h1, interval))

    def step(self) -> bool:
        t, direction = self.t, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        attempt = self._attempt_floats if self._floats else self._attempt_arrays
        rejected = False
        while True:
            if not h_abs >= min_step:
                return False
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, error = attempt(h)
            self.nfev += _STAGES - 1
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
            rejected = True
        self.t_old, self.y_old, self.h = t, self.y, h
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return True

    def _attempt_arrays(self, h):
        """(y_new, f_new, error norm) of a trial step of size h."""
        t, y, fun, K = self.t, self.y, self.fun, self.K
        K[0] = self.f
        for s, c, a, rows in self._stages:
            K[s] = fun(t + c * h, y + a.dot(rows) * h)
        y_new = y + h * _B.dot(K[:-1])
        f_new = K[-1] = fun(t + h, y_new)
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        return y_new, f_new, _error_norm(K, h, scale)

    def _attempt_floats(self, h):
        """_attempt_arrays on a single state, in floats around the same products."""
        t, single, K = self.t, self._single, self.K
        y = y0, y1, y2, y3 = self.y
        K[0] = self.f
        for s, c, a, rows in self._stages:
            d0, d1, d2, d3 = a.dot(rows).tolist()
            K[s] = single(t + c * h, y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
        d0, d1, d2, d3 = _B.dot(K[:-1]).tolist()
        y_new = [y0 + h * d0, y1 + h * d1, y2 + h * d2, y3 + h * d3]
        f_new = K[-1] = single(t + h, *y_new)
        atol, rtol = self.atol, self.rtol
        scale = np.array([atol + _larger(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)])
        return y_new, f_new, _error_norm(K, h, scale)

    def dense(self):
        """y(t) on the last step of a single state, as a callable of a time or a 1-D array of times.

        Its rows and Horner sum are float arithmetic that rounds as scipy's
        array interpolant does; a time gives a (4,) array, times a (4, n) one.
        """
        h, t_old, y_old, single, K = self.h, self.t_old, self.y_old, self._single, self._table
        y0, y1, y2, y3 = y_old
        for s, c, rows, a in self._extra:
            d0, d1, d2, d3 = rows.dot(a).tolist()
            K[s] = single(t_old + c * h, y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
            self.nfev += 1
        k0 = K[0].tolist()
        delta = [a - b for a, b in zip(self.y, y_old)]
        F = [delta, [h * k - d for k, d in zip(k0, delta)],
             [2 * d - h * (f + k) for d, f, k in zip(delta, self.f, k0)],
             *([h * v for v in row] for row in _D.dot(K).tolist())]
        # per component: the rows from the last to the first (0.0 + as on a zeroed array), then y_old
        columns = [(0.0 + c6, c5, c4, c3, c2, c1, c0, yo) for c0, c1, c2, c3, c4, c5, c6, yo in zip(*F, y_old)]

        def at(t):
            x = (t - t_old) / h
            x1 = 1 - x
            return [((((((c6 * x + c5) * x1 + c4) * x + c3) * x1 + c2) * x + c1) * x1 + c0) * x + yo
                    for c6, c5, c4, c3, c2, c1, c0, yo in columns]

        def sol(t):
            if isinstance(t, (float, int)):
                return np.array(at(float(t)))
            t = np.asarray(t, dtype=float)
            return np.array([at(s) for s in t.reshape(-1).tolist()]).reshape(t.shape + (4,)).T

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
    direction of time) or at t1.  A span that is not finite and nonzero,
    or a y0 whose shape is not (4,), raises ValueError; a start with a
    non-finite entry or outside domain_radius raises DomainError before rhs
    is called, and so does an accepted step where |theta1| or |theta2|
    reaches 2**52; a first step that comes out zero or not finite, or a step
    size collapsing (for example in a blow-up), raises IntegrationError.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt as an array, on flat states [theta1, theta2, I1, I2];
        its float entry single_state(), where it has one, steps the orbit.
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
    if y0.shape != (4,):
        raise ValueError(f"y0 must be one flat state [theta1, theta2, I1, I2], got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise DomainError(f"initial state {y0.tolist()!r} is not finite")

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
    keys = (stepper.direction * t_eval).tolist()
    ts, ys, i, n_steps, stop = [], [], 0, 0, None
    g = [event.fn(t0, y0) for event in events]
    while stepper.running and stop is None:
        if not stepper.step():
            raise IntegrationError(
                "integration failed: Required step size is less than spacing between numbers."
            )
        n_steps += 1
        t, y, sol = stepper.t, stepper.y, None
        if abs(y[0]) >= _ANGLE_LIMIT or abs(y[1]) >= _ANGLE_LIMIT:
            raise DomainError(f"an angle of {y!r} at t = {t!r} reached 2**52, past float64's fractional part")
        g_new = [event.fn(t, y) for event in events]
        fired = [ev for ev, a, b in zip(events, g, g_new) if _crosses(a, b, ev.direction)]
        if fired:
            sol = stepper.dense()
            hits = [(_brentq(lambda s, fn=ev.fn: fn(s, sol(s)), stepper.t_old, t), ev) for ev in fired]
            t, stop = min(hits, key=lambda hit: stepper.direction * hit[0])
            y = sol(t)
        g = g_new
        # the samples up to t: the keys from i on that are <= its key
        key, i_new = stepper.direction * t, i
        while i_new < len(keys) and keys[i_new] <= key:
            i_new += 1
        if i_new > i:
            sol = sol or stepper.dense()
            times = t_eval[i:i_new]
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

    The four inputs broadcast together, and the points are taken in the C
    order of the broadcast shape, the order of the meshgrid they expand to.
    Returns (theta1, theta2, I1, I2) arrays of the broadcast shape with
    unwrapped angles.  Points are integrated in blocks of _BLOCK points, each
    one stacked system stepped by DOP853.  A block's shared adaptive step is
    controlled by the RMS error norm over the block, not by its worst point.
    Every block first tries one step over the whole time |t|, which the
    controller rejects and shrinks if it is too large; a near-identity flow
    takes it in 13 evaluations, and a block's result depends on its points
    alone.  When a window is given every point is checked against it after
    every accepted step, and leaving it raises FlowEscapeError, as does a
    step that collapses.  The stage products run on one BLAS thread.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (theta1, theta2, I1, I2)))
    shape = arrays[0].shape
    flat = [v.reshape(-1) for v in arrays]
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
            end = np.reshape(stepper.y, (4, m))
            if pad is not None and not np.all(window.contains(end[2], end[3], margin=pad)):
                raise FlowEscapeError("generator flow left its action window")
        out[:, start : start + m] = np.reshape(stepper.y, (4, m))
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
