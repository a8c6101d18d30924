"""Diffusion experiments on the full Hamiltonian flow.

Every experiment integrates the full system H = h + epsilon f through one
runner, `run_orbit`; the averaging machinery only supplies the starting data
(theta1*, I*, lambda) and the predicted bounds.  The transform is
O(epsilon)-close to the identity, so checking the drift, confinement and
time-scaling claims directly on H keeps transform error out of the measured
quantities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .averaging import GenericityReport, genericity_check
from .integrate import IntegratorConfig, OrbitRecord, StopEvent, _interval_excess, integrate
from .norms import estimate_cj_norm
from .systems import SystemBundle, star_window
from .torus import PhaseState


def exact_moser_orbit(epsilon: float, t):
    """Closed-form channel orbit of the quadratic saddle system.

    From the origin, the resonant forcing is constant along the orbit, so the
    actions grow linearly and the angles quadratically:

        I(t) = (-epsilon t, epsilon t),  theta(t) = -(epsilon t^2, epsilon t^2)/2.

    Angles are returned unwrapped.  This is the primary integration oracle:
    the combination theta1 - theta2 and I1 + I2 are conserved exactly, so a
    correct integrator tracks it to roundoff, not just to tolerance.
    """
    t = np.asarray(t, dtype=float)
    I1 = -epsilon * t
    I2 = epsilon * t
    th = -0.5 * epsilon * t**2
    return th.copy(), th.copy(), I1, I2


@dataclass(frozen=True)
class ExperimentRecord:
    """One diffusion run: inputs, measured quantities and pass flags.

    c_fit is the confinement constant max|I2|/epsilon; C_fit the drift
    constant drift/delta^2 entering the lower bound.  pass_upper checks
    drift <= delta + 1e-6 and pass_lower checks drift >= C_cfg delta^2.
    """

    kind: str
    epsilon: float
    delta: float
    tau_target: float
    tau: float
    drift: float
    max_abs_I2: float
    max_dist_channel: float
    c_fit: float
    C_fit: float
    lam: float
    theta1_star: float
    I_star: tuple
    initial: PhaseState
    final: PhaseState
    pass_upper: bool
    pass_lower: bool
    flagged: bool
    orbit: OrbitRecord | None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.drift < 0:
            raise ValueError("drift is an absolute displacement")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        if self.tau < 0:
            raise ValueError("achieved time must be nonnegative")

    def row(self) -> dict:
        """Flat summary row (the sweep CSV schema)."""
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "tau": self.tau,
            "drift": self.drift,
            "maxI2": self.max_abs_I2,
            "c_fit": self.c_fit,
            "pass_upper": int(self.pass_upper),
            "pass_lower": int(self.pass_lower),
        }

    def as_dict(self) -> dict:
        """The row plus the run data.

        With an orbit attached the solver counts n_rhs_evals and n_steps are
        added, and, when the orbit sampled its energy, max_energy_error, the
        largest |H - H(t0)| over the samples.
        """
        out = {
            **self.row(),
            "kind": self.kind,
            "tau_target": self.tau_target,
            "C_fit": self.C_fit,
            "lambda": self.lam,
            "theta1_star": self.theta1_star,
            "i1_star": self.I_star[0],
            "max_dist_channel": self.max_dist_channel,
            "flagged": int(self.flagged),
            "initial": list(self.initial.as_array()),
            "final": list(self.final.as_array()),
        }
        if self.orbit is not None:
            out["n_rhs_evals"] = self.orbit.n_rhs_evals
            out["n_steps"] = self.orbit.n_steps
            energy_error = self.orbit.max_energy_error
            if math.isfinite(energy_error):
                out["max_energy_error"] = energy_error
        out.update(self.extras)
        return out


def _require_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _channel_genericity(bundle: SystemBundle, what: str) -> GenericityReport:
    """The passing genericity scan of a reduced-chart system; ValueError otherwise."""
    if not bundle.system.is_reduced:
        raise ValueError(f"{what} experiments run in the reduced chart")
    gen = genericity_check(bundle.perturbation, bundle.system)
    if not gen.passed:
        raise ValueError("genericity scan found no usable angular dependence")
    return gen


def run_orbit(
    bundle: SystemBundle,
    y0,
    t_end: float,
    config: IntegratorConfig | None = None,
    reach: float | None = None,
) -> OrbitRecord:
    """Integrate the full flow of bundle from y0 over (0, t_end); t_end < 0 runs backward.

    The run stops at the edge of the action domain and records the energy
    and, in the reduced chart, the distance to the working channel interval.
    With reach set it stops at the "target" event, the first time
    |I1(t) - I1(0)| reaches reach.
    """
    system = bundle.system
    events = ()
    if reach is not None:
        i1_0 = float(y0[2])
        events = (StopEvent("target", lambda _t, y: abs(y[2] - i1_0) - reach, direction=1.0),)
    return integrate(
        bundle.rhs(),
        y0,
        (0.0, t_end),
        config,
        domain_radius=system.R,
        stop_events=events,
        energy_fn=bundle.energy_of,
        channel_interval=system.resonance.s1_interval(star=True) if system.is_reduced else None,
        epsilon=bundle.epsilon,
    )


def _record_from_orbit(kind, bundle, gen, orbit, *, delta, tau_target, judge, extras,
                       start=None, I_star=None):
    """Measure a finished run into an ExperimentRecord.

    The drift is measured from I_star[0] (default gen.I_star) to the orbit's
    final I1, and the confinement and channel distance over its samples.
    orbit=None is the zero-time run that stays at the PhaseState start.
    judge(measured) returns (pass_upper, pass_lower, flagged) from the dict
    of measured fields, and the record is built once from both.
    """
    eps = bundle.epsilon
    I_star = gen.I_star if I_star is None else I_star
    measured = dict(tau=0.0, drift=0.0, max_abs_I2=0.0, max_dist_channel=0.0, c_fit=0.0,
                    C_fit=0.0, initial=start, final=start)
    if orbit is not None:
        interval = bundle.system.resonance.s1_interval(star=True)
        drift = abs(float(orbit.y_end[2]) - I_star[0])
        max_abs_I2 = float(np.max(orbit.abs_I2))
        measured = dict(
            tau=abs(float(orbit.t_end)),
            drift=drift,
            max_abs_I2=max_abs_I2,
            max_dist_channel=float(np.max(_interval_excess(orbit.actions[:, 0], interval))),
            c_fit=max_abs_I2 / eps if eps > 0 else 0.0,
            C_fit=drift / delta**2,
            initial=orbit.initial_state,
            final=orbit.final_state,
        )
    pass_upper, pass_lower, flagged = (bool(v) for v in judge(measured))
    return ExperimentRecord(
        kind=kind, epsilon=eps, delta=delta, tau_target=tau_target, lam=gen.lam,
        theta1_star=gen.theta1_star, I_star=I_star, pass_upper=pass_upper,
        pass_lower=pass_lower, flagged=flagged, orbit=orbit, extras=extras, **measured,
    )


def run_drift_experiment(
    bundle: SystemBundle,
    delta: float | None = None,
    theta2_0: float = 0.0,
    C_cfg: float = 1.0,
    config: IntegratorConfig | None = None,
) -> ExperimentRecord:
    """Drift run from (theta1*, theta2_0, I*) over the time tau = delta/epsilon.

    delta defaults to min(lambda / (4 C_cfg), delta*); delta and C_cfg must
    be finite and positive (ValueError otherwise).  The full Hamiltonian is
    integrated and the run records the drift |I1(tau) - I1(0)| together with
    the confinement max|I2| and the distance to the working subsegment.  With
    epsilon = 0 the run lasts unit time and the drift is zero.
    """
    _require_positive("C_cfg", C_cfg)
    gen = _channel_genericity(bundle, "drift")
    eps = bundle.epsilon
    if delta is None:
        delta = min(gen.lam / (4.0 * C_cfg), gen.delta_star)
    delta = float(delta)
    _require_positive("delta", delta)
    tau_target = delta / eps if eps > 0 else 1.0
    y0 = np.array([gen.theta1_star, theta2_0, gen.i1_star, 0.0])
    record = run_orbit(bundle, y0, tau_target, config)
    return _record_from_orbit(
        "drift", bundle, gen, record, delta=delta, tau_target=tau_target,
        judge=lambda m: (
            m["drift"] <= delta + 1e-6,
            eps == 0.0 or m["drift"] >= C_cfg * delta**2 - 1e-12,
            record.flagged or m["max_dist_channel"] > delta + 0.1,
        ),
        extras={"C_cfg": C_cfg, "theta2_0": theta2_0, "delta_star": gen.delta_star},
    )


def run_connecting_experiment(
    bundle: SystemBundle,
    i1_from: float,
    i1_to: float,
    theta2_0: float = 0.0,
    config: IntegratorConfig | None = None,
) -> ExperimentRecord:
    """Steer the action from (i1_from, 0) to (i1_to, 0) along the channel.

    The time direction is chosen from the sign of d f_bar / d theta1 at the
    working angle so the drift moves toward the target; integration stops at
    the first time |I1(t) - i1_from| reaches rho = |i1_to - i1_from|, capped
    at delta / epsilon with delta = 2 rho / lambda.  Coinciding endpoints
    yield the trivial zero-time record.
    """
    gen = _channel_genericity(bundle, "connecting")
    eps = bundle.epsilon
    rho = abs(float(i1_to) - float(i1_from))
    lo, hi = bundle.system.resonance.s1_interval()
    for value, label in ((i1_from, "start"), (i1_to, "target")):
        if not (lo - 1e-12 <= value <= hi + 1e-12):
            raise ValueError(f"{label} action {value} lies outside the channel segment")

    if rho == 0.0:
        start = PhaseState.make(gen.theta1_star, theta2_0, float(i1_from), 0.0)
        return _record_from_orbit(
            "connect", bundle, gen, None, delta=0.0, tau_target=0.0, start=start,
            judge=lambda m: (True, True, False),
            extras={"terminal_distance": 0.0, "rho": 0.0, "reached": True},
        )
    if eps <= 0.0:
        raise ValueError("connecting distinct actions needs epsilon > 0")

    delta = 2.0 * rho / gen.lam
    t_max = delta / eps
    # drift rate of I1 at the working angle is -eps d f_bar/d theta1; flip
    # time if that moves away from the target
    rate_sign = -math.copysign(1.0, gen.derivative_at_star)
    sigma = 1.0 if rate_sign * (i1_to - i1_from) > 0 else -1.0
    y0 = np.array([gen.theta1_star, theta2_0, float(i1_from), 0.0])
    record = run_orbit(bundle, y0, sigma * t_max, config, reach=rho)
    reached = record.stop_event == "target"
    return _record_from_orbit(
        "connect", bundle, gen, record, delta=delta, tau_target=t_max,
        I_star=(float(i1_from), 0.0),
        judge=lambda m: (m["tau"] <= t_max * (1.0 + 1e-9), reached, record.flagged),
        extras={
            "terminal_distance": abs(float(record.y_end[2]) - float(i1_to)),
            "rho": rho,
            "reached": bool(reached),
            "time_sign": sigma,
            "i1_from": float(i1_from),
            "i1_to": float(i1_to),
        },
    )


@dataclass(frozen=True)
class OptimalityReport:
    """Upper-bound audit: drift against delta times the measured C^1 norm."""

    drift: float
    delta: float
    f_c1_norm: float
    bound: float
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def optimality_check(record: ExperimentRecord, bundle: SystemBundle) -> OptimalityReport:
    """Check drift <= delta * |f|_C1 + 1e-6 on a finished run.

    The C^1 norm of the perturbation is measured on the working window, so
    the bound is the one the run could actually feel.  This inequality is a
    theorem, so a failure indicates an integration or bookkeeping defect.
    """
    window = star_window(bundle.system.resonance, record.delta + 1e-6)
    norm = estimate_cj_norm(bundle.perturbation, 1, window)
    bound = record.delta * norm.value + 1e-6
    return OptimalityReport(
        drift=record.drift,
        delta=record.delta,
        f_c1_norm=norm.value,
        bound=bound,
        slack=bound - record.drift,
        passed=bool(record.drift <= bound),
    )


@dataclass
class SweepResult:
    """Scaling fit tau_Delta(epsilon) = A epsilon^{-p} across a sweep."""

    records: list
    target_drift: float
    p: float
    A: float
    r_squared: float
    confinement_ratio: float
    all_reached: bool

    def fit_dict(self) -> dict:
        """Every field but the records (the fit.json payload)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}


def sweep_epsilon(
    system,
    perturbation,
    epsilons: Sequence[float],
    target_drift: float = 0.1,
    theta2_0: float = 0.0,
    config: IntegratorConfig | None = None,
) -> SweepResult:
    """Measure the time to reach a fixed drift for each epsilon and fit the law.

    The system must be in the reduced chart.  Each run starts at
    (theta1*, theta2_0, I*) and stops when |I1(t) - I1(0)| reaches the
    target, which must be finite and positive, with a time cap
    4 target / (lambda epsilon).  The fitted exponent p comes from least
    squares on log tau against log epsilon, over at least three distinct
    epsilons spanning a decade.
    """
    _require_positive("target_drift", target_drift)
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 3:
        raise ValueError("a sweep needs at least three epsilon values")
    if min(epsilons) <= 0:
        raise ValueError("sweep epsilons must be positive")
    if len(set(epsilons)) < len(epsilons):
        raise ValueError("sweep epsilons must be distinct")
    if max(epsilons) / min(epsilons) < 10.0 - 1e-9:
        raise ValueError("sweep epsilons should span at least a decade")
    gen = _channel_genericity(SystemBundle(system, perturbation, epsilons[0]), "sweep")

    def sweep_one(eps: float) -> ExperimentRecord:
        bundle = SystemBundle(system, perturbation, eps)
        t_max = 4.0 * target_drift / (gen.lam * eps)
        y0 = np.array([gen.theta1_star, theta2_0, gen.i1_star, 0.0])
        record = run_orbit(bundle, y0, t_max, config, reach=target_drift)
        reached_flag = record.stop_event == "target"
        return _record_from_orbit(
            "sweep", bundle, gen, record, delta=target_drift, tau_target=t_max,
            judge=lambda m: (
                m["drift"] <= target_drift + 1e-6 + m["max_abs_I2"],
                reached_flag,
                record.flagged or not reached_flag,
            ),
            extras={"reached": bool(reached_flag)},
        )

    records = [sweep_one(eps) for eps in epsilons]

    log_eps = np.log(np.array([r.epsilon for r in records]))
    log_tau = np.log(np.array([r.tau for r in records]))
    slope, intercept = np.polyfit(log_eps, log_tau, 1)
    predicted = slope * log_eps + intercept
    ss_res = float(np.sum((log_tau - predicted) ** 2))
    ss_tot = float(np.sum((log_tau - np.mean(log_tau)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    c_fits = [r.c_fit for r in records if r.c_fit > 0]
    ratio = max(c_fits) / min(c_fits) if c_fits else 1.0
    return SweepResult(
        records=records,
        target_drift=target_drift,
        p=float(-slope),
        A=float(np.exp(intercept)),
        r_squared=r_squared,
        confinement_ratio=float(ratio),
        all_reached=all(r.extras.get("reached", False) for r in records),
    )
