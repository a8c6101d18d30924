"""Adaptive orbit integration, generator flows and symplecticity checks.

Orbits of the full Hamiltonian go through scipy's solve_ivp with an embedded
Runge-Kutta pair (DOP853 by default, RK45 as the lower-order option).  Angles
are integrated on the universal cover and wrapped only when samples are
recorded, so no artificial discontinuities enter the error control.
Termination conditions (domain exit, channel exit, target drift, stopping
times) are root-found on dense output.

Unit-time flows of averaging generators have one path, flow_points: an
in-repo DOP853 loop (scipy's tableau and step controller) steps bounded
blocks of points as stacked systems, each block starting from the step the
last one ended on, and checks the action window after every accepted step.
lie_flow is its one-point case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .blas import serial_blas
from .errors import FlowEscapeError, IntegrationError
from .fourier import BLOCK_VALUES
from .torus import PhaseState, wrap


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control and sampling knobs for orbit integration."""

    order: int = 8
    rtol: float = 1e-10
    atol: float = 1e-10
    n_samples: int = 513

    def __post_init__(self):
        if self.order not in (4, 8):
            raise ValueError("integrator order must be 4 or 8")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")

    @property
    def method(self) -> str:
        # order 4 is the embedded 5(4) pair
        return "DOP853" if self.order == 8 else "RK45"


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
    flag: Optional[str]
    stop_event: Optional[str]
    t_end: float
    y_end: np.ndarray
    n_steps: int
    n_rhs_evals: int
    epsilon: Optional[float] = None
    meta: dict = field(default_factory=dict)

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
            [self.t, self.theta[:, 0], self.theta[:, 1], self.actions[:, 0],
             self.actions[:, 1], self.energy, self.abs_I2, self.dist_channel]
        )
        lines = [header]
        for row in cols:
            lines.append(",".join(f"{v:.17g}" for v in row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _interval_excess(I1, interval):
    """Distance of I1 to the closed interval (0 inside it)."""
    lo, hi = interval
    return np.maximum(0.0, np.maximum(lo - np.asarray(I1), np.asarray(I1) - hi))


def _channel_distance(I1, I2, interval):
    """Sup-norm distance to the channel segment {I2 = 0, I1 in interval}."""
    return np.maximum(_interval_excess(I1, interval), np.abs(np.asarray(I2)))


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
    n_samples: int | None = None,
    epsilon: float | None = None,
) -> OrbitRecord:
    """Integrate dy/dt = rhs(t, y) over t_span with sampled diagnostics.

    A solver failure (for example a step size collapsing in a blow-up)
    raises IntegrationError.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt on flat states [theta1, theta2, I1, I2].
    y0 : initial flat state; angles are taken as given (canonical lift).
    t_span : (t0, t1); t1 < t0 integrates backward.
    config : IntegratorConfig, defaults to order 8 at 1e-10 tolerances.
    domain_radius : sup-norm action bound; exiting it terminates and flags.
    stop_events : additional StopEvent terminations.
    energy_fn : callable on sampled flat states, recorded per sample.
    channel_interval : (lo, hi) of the working subsegment in I1 for the
        dist_channel diagnostic.
    n_samples : number of sample times, at least 1; None takes the config's.
    """
    config = config or IntegratorConfig()
    y0 = np.asarray(y0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    n = config.n_samples if n_samples is None else n_samples
    if n < 1:
        raise ValueError("n_samples must be at least 1")
    t_eval = np.linspace(t0, t1, n)

    events = []
    event_specs: list[StopEvent] = []
    if domain_radius is not None:
        def domain_exit(_t, y, _r=float(domain_radius)):
            return _r - max(abs(y[2]), abs(y[3]))

        spec = StopEvent("domain_exit", domain_exit, direction=-1.0, flags=True)
        event_specs.append(spec)
    event_specs.extend(stop_events)
    for spec in event_specs:
        # scipy reads terminal and direction off the callable; a fresh closure
        # carries them, so the caller's callable is left untouched
        def event(t, y, _fn=spec.fn):
            return _fn(t, y)

        event.terminal = True
        event.direction = spec.direction
        events.append(event)

    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method=config.method,
        rtol=config.rtol,
        atol=config.atol,
        t_eval=t_eval,
        dense_output=True,
        events=events or None,
    )
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"integration failed: {sol.message}")

    stop_name = None
    flagged = False
    if sol.status == 1:
        for spec, t_ev, y_ev in zip(event_specs, sol.t_events, sol.y_events):
            if t_ev.size:
                stop_name = spec.name
                flagged = spec.flags
                t_end = float(t_ev[-1])
                y_end = np.asarray(y_ev[-1], dtype=float)
                break
        else:  # pragma: no cover - scipy guarantees a populated event row
            t_end, y_end = float(sol.t[-1]), sol.y[:, -1]
    else:
        t_end, y_end = t1, sol.sol(t1)

    ts = sol.t
    ys = sol.y
    if ts.size == 0 or abs(ts[-1] - t_end) > 0:
        ts = np.append(ts, t_end)
        ys = np.column_stack([ys, y_end]) if ys.size else y_end[:, None]

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

    interp = getattr(sol, "sol", None)
    n_steps = max(len(interp.ts) - 1, 0) if interp is not None else len(ts) - 1
    return OrbitRecord(
        t=ts,
        theta=theta,
        actions=actions,
        energy=energy,
        abs_I2=np.abs(actions[:, 1]),
        dist_channel=np.asarray(dist, dtype=float),
        flagged=flagged,
        flag=stop_name if flagged else None,
        stop_event=stop_name,
        t_end=t_end,
        y_end=np.asarray(y_end, dtype=float),
        n_steps=n_steps,
        n_rhs_evals=int(sol.nfev),
        epsilon=epsilon,
    )


def lie_flow(
    chi,
    scale: float,
    t: float,
    state: PhaseState,
    *,
    rtol: float = 1e-12,
    atol: float = 1e-12,
    window=None,
    displacement_bound: float | None = None,
) -> PhaseState:
    """Flow a state for time t under the Hamiltonian vector field of scale*chi.

    This is the one-point case of :func:`flow_points`, which checks the window
    after every accepted step; when a displacement bound is given (the
    containment budget for |t| <= 1) the total move is checked too.
    Violations raise FlowEscapeError.
    """
    if t == 0.0 or chi.is_zero:
        return state
    y0 = state.as_array()
    y1 = np.array(flow_points(chi, scale, t, *y0, rtol=rtol, atol=atol, window=window))
    if displacement_bound is not None and abs(t) <= 1.0:
        move = float(np.max(np.abs(y1 - y0)))
        if move > displacement_bound * (1.0 + 1e-9):
            raise FlowEscapeError(
                f"generator flow moved {move:.3e}, budget {displacement_bound:.3e}"
            )
    return PhaseState.make(wrap(y1[0]), wrap(y1[1]), y1[2], y1[3])


# DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, Sec. II), read off scipy's
# public class: 12 stages, the 8th-order weights B, and the 5th- and 3rd-order
# error rows E5 and E3 over the 13 rows of the stage table (the last row is f
# at the new point).  The step controller is scipy's.
_A, _B, _C, _E3, _E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
_ROWS = DOP853.n_stages + 1
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, y, f, t_end, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4) from t = 0."""
    interval = abs(t_end)
    direction = np.sign(t_end)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(h0 * direction, y + h0 * direction * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, interval)


def _error_norm(K, h, scale):
    """DOP853's RMS error norm of a step: the 5th-order estimate, damped by the 3rd."""
    err5 = np.linalg.norm((_E5 @ K) / scale) ** 2
    err3 = np.linalg.norm((_E3 @ K) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))


def _dop853(fun, y, t_end, rtol, atol, check, h_abs=None):
    """Step dy/dt = fun(t, y) from t = 0 to t_end; return (y(t_end), next step).

    Step for step this is scipy's DOP853 with an unbounded maximum step:
    without h_abs the first step is scipy's initial-step choice, with it the
    stepper starts from that step, and a step that is too large is rejected
    and shrunk like any other.  check(y) runs after every accepted step.  The
    returned step is the one the controller proposes after the last step.  A
    step that falls below 10 ulp of t raises FlowEscapeError.
    """
    direction = np.sign(t_end)
    t = 0.0
    f = fun(t, y)
    if h_abs is None:
        h_abs = _initial_step(fun, y, f, t_end, rtol, atol)
    K = np.empty((_ROWS, y.size))
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise FlowEscapeError(
                    f"generator flow could not be integrated: the step fell below "
                    f"{min_step:.3e} at t = {t:.17g}"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _ROWS - 1):
                K[s] = fun(t + _C[s] * h, y + (_A[s, :s] @ K[:s]) * h)
            y_new = y + h * (_B @ K[:-1])
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _error_norm(K, h, scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        check(y)
    return y, h_abs


# flow_points steps blocks of this many points.  A block's stage table is
# (13, 4 x points); at this size it holds about BLOCK_VALUES values (8 MB), so
# the stepper's working set stays near the cache and its memory is bounded
# whatever the number of points.
_BLOCK = BLOCK_VALUES // (4 * _ROWS)


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
    The first block starts from scipy's initial-step choice; every later
    block starts from the step the controller proposed at the end of the
    block before it, which the controller rejects and shrinks if it is too
    large.  When a window is given every point is checked against it after
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

    n = flat[0].size
    out = np.empty((4, n))
    rhs = chi.flow_rhs(scale)
    pad = None if window is None else 1e-12 + 1e-9 * window.sup_radius
    h_abs = None
    for start in range(0, n, _BLOCK):
        block = np.stack([v[start : start + _BLOCK] for v in flat])
        m = block.shape[1]

        def stacked(_t, y, _m=m):
            return rhs(_t, y.reshape(4, _m)).ravel()

        def check(y, _m=m):
            end = y.reshape(4, _m)
            if pad is not None and not np.all(window.contains(end[2], end[3], margin=pad)):
                raise FlowEscapeError("generator flow left its action window")

        y, h_abs = _dop853(stacked, block.ravel(), float(t), rtol, atol, check, h_abs)
        out[:, start : start + m] = y.reshape(4, m)
    return tuple(v.reshape(shape) for v in out)


_OMEGA = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def symplecticity_defect(map_fn, state: PhaseState, step: float = 2.0 ** -13) -> float:
    """Sup-norm of J^T Omega J - Omega for the map's central-difference Jacobian.

    map_fn takes and returns a PhaseState.  Angle differences in the output
    are taken on the torus so a wrap boundary cannot pollute the Jacobian.
    """
    y0 = state.as_array()
    J = np.empty((4, 4))
    for col in range(4):
        yp = y0.copy()
        ym = y0.copy()
        yp[col] += step
        ym[col] -= step
        zp = map_fn(PhaseState.from_array(yp)).as_array()
        zm = map_fn(PhaseState.from_array(ym)).as_array()
        diff = zp - zm
        # shortest representative for the angle rows
        diff[:2] = (np.mod(diff[:2] + 0.5, 1.0)) - 0.5
        J[:, col] = diff / (2.0 * step)
    defect = J.T @ _OMEGA @ J - _OMEGA
    return float(np.max(np.abs(defect)))
