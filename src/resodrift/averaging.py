"""Resonant averaging, homological solves and measured normal forms.

The averaging step splits a perturbation into its resonant part (modes
constant along the channel flow) and an oscillating part, solves the
homological equation omega . d_theta chi = oscillating part mode by mode, and
conjugates the system by the unit-time flow of epsilon * chi.  A normal form
is a NormalFormResult: its bundle and its AveragingSteps, whose composition
Phi = Phi_1 o ... o Phi_n the result applies (phi, phi_points), and the
first remainder f' as its exact Lie series (first_remainder_series), off
which the remainders are read.  Every series is a FourierPerturbation;
generators (GeneratorChi.series) and f' are rational over their divisors.
The second step solves f''s kept modes as they stand, so nothing is fitted
and one path serves any perturbation.  Its remainder flows the points
through Phi_2 alone and composes them with the exact series of H o Phi_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .blas import serial_blas
from .errors import DomainError, FlowEscapeError, SmallDivisorError
from .fourier import TWO_PI, FourierPerturbation
from .integrate import flow_points, lie_flow
from .norms import c1_peaks
from .poly import PolyField
from .systems import (
    ActionWindow,
    IntegrableSystem,
    SystemBundle,
    hamiltonian_series,
    star_window,
    verify_channel_assumptions,
)
from .torus import PhaseState


# -- projections -----------------------------------------------------------------


def average_over_theta2(f: FourierPerturbation) -> FourierPerturbation:
    """Angle average along theta2: keep exactly the modes with k2 = 0.

    This is the resonant average in the reduced chart, where the channel flow
    is the theta2 rotation.  The projection is an exact mode filter, so
    applying it twice returns the same mode set (idempotence is structural).
    """
    return f.filter(lambda k: k[1] == 0)


def resonant_average_along_k(f: FourierPerturbation, k, I_star) -> FourierPerturbation:
    """Average of f along the k-flow, as a series in theta1 alone.

    Keeps the modes m with m . k = 0; each is a multiple j of the primitive
    transverse vector m0 = (k2, -k1)/gcd and becomes the mode (j, 0) of the
    returned series, with its coefficients evaluated at I_star.  theta1 is the
    leaf coordinate, normalized so that after reduction it matches theta1 of
    the reduced chart, which makes derivative magnitudes comparable across
    charts.
    """
    k1, k2 = int(k[0]), int(k[1])
    if (k1, k2) == (0, 0):
        raise ValueError("resonance wave vector must be nonzero")
    g = math.gcd(abs(k1), abs(k2))
    kp = (k1 // g, k2 // g)
    m0 = (kp[1], -kp[0])
    I1, I2 = float(I_star[0]), float(I_star[1])
    terms = []
    for m, (a_poly, b_poly) in f.modes.items():
        if m[0] * kp[0] + m[1] * kp[1] != 0:
            continue
        j = m[0] // m0[0] if m0[0] != 0 else m[1] // m0[1]
        terms.append(((j, 0), float(a_poly(I1, I2)), float(b_poly(I1, I2))))
    return FourierPerturbation.from_terms(terms)


# -- genericity -------------------------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    """Measured angular dependence of the resonant average on the channel.

    lam is the safety-scaled grid maximum of |d f_bar / d theta1| over the
    scanned (theta1, I*) grid; theta1_star and i1_star locate the maximizer;
    delta_star is the distance of i1_star to the boundary of S1*.
    """

    lam: float
    theta1_star: float
    i1_star: float
    delta_star: float
    passed: bool
    max_derivative: float
    derivative_at_star: float
    safety: float
    n_interior: int

    @property
    def I_star(self) -> tuple[float, float]:
        return (self.i1_star, 0.0)

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "theta1_star": self.theta1_star,
            "i1_star": self.i1_star,
            "delta_star": self.delta_star,
            "passed": self.passed,
            "max_derivative": self.max_derivative,
            "derivative_at_star": self.derivative_at_star,
            "safety": self.safety,
        }


# lambda is GENERICITY_SAFETY times the scanned maximum of |d f_bar/d theta1|,
# and a maximum below GENERICITY_THRESHOLD fails the scan
GENERICITY_SAFETY = 0.9
GENERICITY_THRESHOLD = 1e-12


def genericity_check(
    f: FourierPerturbation, system: IntegrableSystem, n_theta: int = 256, n_interior: int = 31
) -> GenericityReport:
    """Scan |d_theta1 f_bar| over theta1 and interior points of S1*.

    Action-independent perturbations are scanned at the single midpoint of
    S1* (their resonant average does not vary along the channel); otherwise
    an interior grid of S1* is swept.  The report fails when the maximum
    falls below GENERICITY_THRESHOLD, in which case no drift direction can
    be certified.
    """
    if not system.is_reduced:
        raise ValueError("genericity check expects a system in the reduced chart")
    f_bar = average_over_theta2(f)
    lo, hi = system.resonance.s1_interval(star=True)
    if f.is_action_independent:
        candidates = np.array([0.5 * (lo + hi)])
    else:
        candidates = np.linspace(lo, hi, n_interior + 2)[1:-1]
    theta = np.linspace(0.0, 1.0, n_theta, endpoint=False)
    # row 1 of the table is d f_bar/d theta1, on (candidates, theta)
    vals = f_bar.table().outer(theta, 0.0, candidates, 0.0, grad=True)[1].T
    flat = int(np.argmax(np.abs(vals)))
    it, ia = np.unravel_index(flat, vals.shape)
    max_derivative = float(np.abs(vals[it, ia]))
    i1_star = float(candidates[ia])
    return GenericityReport(
        lam=GENERICITY_SAFETY * max_derivative,
        theta1_star=float(theta[it]),
        i1_star=i1_star,
        delta_star=float(min(i1_star - lo, hi - i1_star)),
        passed=bool(max_derivative >= GENERICITY_THRESHOLD),
        max_derivative=max_derivative,
        derivative_at_star=float(vals[it, ia]),
        safety=GENERICITY_SAFETY,
        n_interior=len(candidates),
    )


# -- cutoff and homological equation ----------------------------------------------


def choose_cutoff(epsilon: float, kappa: float, varpi: float, f: FourierPerturbation) -> int:
    """Fourier cutoff K = max(ceil(varpi / (2 kappa epsilon)), largest mode of f)."""
    if epsilon <= 0 or kappa <= 0 or varpi <= 0:
        raise ValueError("epsilon, kappa and varpi must be positive")
    return max(math.ceil(varpi / (2.0 * kappa * epsilon)), f.max_mode)


class GeneratorChi:
    """Averaging generator with exact mode-wise evaluation.

    chi(theta, I) = sum_k [nc_k(I) cos(2 pi k.theta) + ns_k(I) sin(2 pi k.theta)]
                    / (2 pi k.omega(I))

    The numerators are a FourierPerturbation, rational in the actions over
    its own divisors on the second step.  Every mode has k2 != 0,
    sup-norm |k| <= cutoff, and satisfies the small-divisor bound
    |k.omega| >= varpi/2 on the working window (verified on a grid at
    construction; the grid's smallest |k.omega| is kept as min_divisor, None
    when there is no mode).  The numerators sit in one divided ModeTable,
    whose divisors and their action derivatives come from the shared omega
    and its Jacobian, so no differencing enters the flows.
    """

    def __init__(self, system: IntegrableSystem, numerators, cutoff: int, window: ActionWindow):
        self.cutoff = int(cutoff)
        self.window = window
        self.varpi = system.resonance.varpi
        self._numerators = numerators
        self._omega = system.omega_polys()
        self._table = numerators.table(omega=self._omega)
        for k in self.mode_keys:
            if k[1] == 0:
                raise SmallDivisorError("generator modes must have k2 != 0")
            if max(abs(k[0]), abs(k[1])) > self.cutoff:
                raise SmallDivisorError(f"mode {k} exceeds the cutoff {self.cutoff}")
        self._verify_divisors()

    # -- structure ---------------------------------------------------------------

    @property
    def mode_keys(self):
        return [tuple(k) for k in self._table.K.tolist()]

    @property
    def is_zero(self) -> bool:
        return self._table.K.shape[0] == 0

    def _verify_divisors(self):
        self.min_divisor = None
        if self.is_zero:
            return
        I1, I2 = self.window.grid(65, 17)
        smallest = np.min(np.abs(self._table.divisors(I1[:, None], I2[None, :])), axis=(1, 2)) / TWO_PI
        self.min_divisor = float(np.min(smallest))
        floor = self.varpi / 2.0
        for k, low in zip(self.mode_keys, smallest):
            if low < floor:
                raise SmallDivisorError(
                    f"|k.omega| for mode {k} reaches {low:.3e} on the window, "
                    f"below the floor {floor:.3e}"
                )

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, theta1, theta2, I1, I2):
        return self._table.values(theta1, theta2, I1, I2)

    __call__ = evaluate

    def series(self) -> FourierPerturbation:
        """chi as a series over its numerators' divisors and those of its primitive modes."""
        return self._numerators.divided(self._omega)

    def gradients(self, theta1, theta2, I1, I2):
        """(d chi/d theta, d chi/d I), each stacked with leading axis 2."""
        rows = self._table.evaluate(theta1, theta2, I1, I2)
        return rows[1:3], rows[3:5]

    def flow_rhs(self, scale: float) -> Callable:
        """Hamiltonian vector field of scale * chi on flat states."""

        def fun(_t, y):
            g_theta, g_action = self.gradients(*y)
            return np.concatenate([scale * g_action, -scale * g_theta])

        return fun

    # -- measured C^1 norm ---------------------------------------------------------

    def c1_norm(self) -> float:
        """Measured C^1 norm over T^2 x the generator's window.

        The largest grid sup of norms.c1_peaks, an estimate from below.
        """
        if self.is_zero:
            return 0.0
        return max(c1_peaks(self._table, self.window))


def solve_homological(
    system: IntegrableSystem,
    f: FourierPerturbation,
    cutoff: int,
    window: ActionWindow,
) -> GeneratorChi:
    """Solve omega . d_theta chi = oscillating part of f, mode by mode.

    Modes with k2 = 0 belong to the resonant average and contribute
    nothing; every other mode k with |k| <= cutoff gets the closed-form
    coefficient pair (-b_k, a_k) / (2 pi k.omega(I)), rational in the
    actions when f is.  Small divisors are guarded on the window grid at
    construction of the generator.
    """
    osc = f.filter(lambda k: k[1] != 0 and max(abs(k[0]), abs(k[1])) <= cutoff)
    return GeneratorChi(system, osc.quarter_turn(), cutoff, window)


# -- normal form results ------------------------------------------------------------


@dataclass(frozen=True)
class AveragingStep:
    """One averaging step: the unit-time flow Phi_n of scale * chi.

    Step n averages at scale = epsilon**n.  chi carries its Fourier cutoff
    and its window, on which it is guarded and flowed; gamma is its measured
    C^1 norm, f_bar the resonant correction the step adds to the normal
    form (over chi1's divisors after step 1), and budget the displacement
    the scalar flow may make (kappa epsilon / 2**n).  A step whose scale * gamma exceeds its budget
    raises FlowEscapeError.
    """

    chi: GeneratorChi
    scale: float
    gamma: float
    f_bar: FourierPerturbation
    budget: float

    def __post_init__(self):
        if self.scale * self.gamma > self.budget * (1.0 + 1e-9):
            raise FlowEscapeError(f"flow budget exceeded: scale * gamma = "
                                  f"{self.scale * self.gamma:.3e} > budget {self.budget:.3e}")

    def phi_points(self, th1, th2, I1, I2, direction: float = 1.0):
        """Phi_n on arrays of points; direction=-1 flows back."""
        return flow_points(self.chi, self.scale, float(direction), th1, th2, I1, I2, window=self.chi.window)

    def phi(self, state: PhaseState, direction: float = 1.0) -> PhaseState:
        """Phi_n on one state, checked against the window and the budget."""
        return lie_flow(
            self.chi, self.scale, float(direction), state,
            window=self.chi.window, displacement_bound=self.budget,
        )


@dataclass(frozen=True)
class NormalFormResult:
    """A resonant normal form of bundle, held as its averaging steps.

    The transform is Phi = Phi_1 o ... o Phi_n over averaging_steps: phi and
    phi_points apply the last step first, and with direction=-1 undo the
    first step first, so they invert Phi.  first_remainder is f', the
    remainder left after step 1, as its exact Lie series
    (first_remainder_series); the one-step build makes it and the later
    steps keep it.  remainder evaluates the last remainder, and
    sup_remainders[j] is the sup of the remainder left after step j + 1.
    The sample window and the displacement bound follow from the steps.
    The builder measures the displacement of Phi on random points and the
    last remainder's sup on a grid of the sample window (_measure); every
    sup, residual and displacement is a grid measurement, and only the
    displacement and the remainders after step 1 flow points.  as_dict is
    the normal_form.json record.
    """

    bundle: SystemBundle
    kappa: float
    averaging_steps: tuple[AveragingStep, ...]
    homological_residual: float
    genericity: GenericityReport
    meta: dict = field(default_factory=dict)
    displacement: float = math.nan
    sup_remainders: tuple[float, ...] = ()
    first_remainder: FourierPerturbation | None = None

    @property
    def epsilon(self) -> float:
        return self.bundle.epsilon

    @property
    def sample_window(self) -> ActionWindow:
        """Window of radius the last step's budget, where Phi is measured."""
        return star_window(self.bundle.system.resonance, self.averaging_steps[-1].budget)

    @property
    def displacement_bound(self) -> float:
        """Sum of the step budgets, (1 - 2^-n) kappa epsilon."""
        n = self.steps
        return (2.0**n - 1.0) * self.kappa * self.epsilon / 2.0**n

    @property
    def displacement_ok(self) -> bool:
        return bool(self.displacement <= self.displacement_bound * (1.0 + 1e-9))

    @property
    def steps(self) -> int:
        """Number of averaging steps."""
        return len(self.averaging_steps)

    @property
    def chi(self) -> GeneratorChi:
        """Generator of the first step."""
        return self.averaging_steps[0].chi

    @property
    def window(self) -> ActionWindow:
        """Working window of radius kappa epsilon, on which the first step flows."""
        return self.averaging_steps[0].chi.window

    @property
    def sup_remainder(self) -> float:
        """Measured sup of the last remainder, the one remainder samples."""
        return self.sup_remainders[-1]

    @property
    def step1(self) -> AveragingStep:
        """The first step; its phi_points is Phi_1 alone."""
        return self.averaging_steps[0]

    @property
    def chi2(self) -> GeneratorChi:
        """Generator of the second step; IndexError on a one-step result."""
        return self.averaging_steps[1].chi

    @property
    def quarter_window(self) -> ActionWindow:
        """Sample window of a two-step result, of radius kappa epsilon / 4."""
        if self.steps != 2:
            raise AttributeError("only a two-step normal form has a quarter window")
        return self.sample_window

    def as_dict(self) -> dict:
        """The normal_form.json record; from step 2 on a step's keys carry its number: K, K2, ..."""
        record = {
            "kappa": self.kappa,
            "phi_displacement": self.displacement,
            "displacement_bound": self.displacement_bound,
            "residual_homological": self.homological_residual,
            "lambda": self.genericity.lam,
            "theta_star": self.genericity.theta1_star,
            "I_star": list(self.genericity.I_star),
            "steps": self.steps,
            "kappa_rounds": [list(r) for r in self.meta["kappa_rounds"]],
        }
        for n, (step, sup) in enumerate(zip(self.averaging_steps, self.sup_remainders), 1):
            tag = str(n) if n > 1 else ""
            record.update({"K" + tag: step.chi.cutoff, "gamma" + tag: step.gamma,
                           "min_divisor" + tag: step.chi.min_divisor, f"sup_f{n}": sup})
        record.update({k: self.meta[k] for k in ("n_kept_modes", "series_order", "series_terms",
                                                 "series_dropped_bound") if k in self.meta})
        return record

    def _ordered(self, direction: float):
        return self.averaging_steps if direction < 0 else self.averaging_steps[::-1]

    def phi_points(self, th1, th2, I1, I2, direction: float = 1.0):
        """Phi on arrays of points; direction=-1 applies Phi^-1."""
        point = (th1, th2, I1, I2)
        for step in self._ordered(direction):
            point = step.phi_points(*point, direction=direction)
        return point

    def phi(self, state: PhaseState, direction: float = 1.0) -> PhaseState:
        """Phi on one state, each step checked against its window and budget."""
        for step in self._ordered(direction):
            state = step.phi(state, direction=direction)
        return state

    def remainder(self, th1, th2, I1, I2):
        """The last remainder at points, (H o Phi - h - sum_j eps^j f_bar_j) / eps^(n+1).

        After one step it is f', evaluated off first_remainder.  After n > 1
        steps H o Phi_1 is the exact series G = h + eps f_bar_1 + eps^2 f',
        so only Phi_2 o ... o Phi_n is flowed: the remainder is
        (G o Phi_2 o ... o Phi_n - h - sum_j eps^j f_bar_j) / eps^(n+1), both
        series over f''s divisors, built on the first call.
        """
        if self.steps == 1:
            return self.first_remainder(th1, th2, I1, I2)
        G, normal_form = self._composed_series
        moved = (th1, th2, I1, I2)
        for step in self.averaging_steps[:0:-1]:
            moved = step.phi_points(*moved)
        return (G(*moved) - normal_form(th1, th2, I1, I2)) / self.epsilon ** (self.steps + 1)

    @cached_property
    def _composed_series(self):
        """(G = h + eps f_bar_1 + eps^2 f', the normal form h + sum_j eps^j f_bar_j) of a result of n > 1 steps."""
        first = hamiltonian_series(self.bundle.system.h, self.step1.scale * self.step1.f_bar)
        later = [step.f_bar * step.scale for step in self.averaging_steps[1:]]
        return first + self.first_remainder * self.epsilon**2, FourierPerturbation.concatenate([first, *later])


def _require_window_inside(system: IntegrableSystem, window: ActionWindow):
    if window.sup_radius > system.R + 1e-12:
        raise DomainError(
            "averaging window leaves the action domain; epsilon is too large "
            f"(window radius {window.sup_radius:.3g}, R = {system.R:.3g})"
        )


def _homological_residual(system, chi, g, window, grid=(16, 8, 65, 17)) -> float:
    """Max of |omega . d_theta chi - g| on a theta-lattice x action grid."""
    n1, n2, m1, m2 = grid
    th1 = np.linspace(0.0, 1.0, n1, endpoint=False)
    th2 = np.linspace(0.0, 1.0, n2, endpoint=False)
    I1, I2 = window.grid(m1, m2)
    angles, actions = (th1[:, None], th2[None, :]), (I1[:, None], I2[None, :])
    rows = chi._table.outer(*angles, *actions, grad=True)
    om = system.omega(*actions)[..., None, None]
    lhs = om[0] * rows[1] + om[1] * rows[2]
    return float(np.max(np.abs(lhs - g.table().outer(*angles, *actions))))


def _measure(nf: NormalFormResult, n_points: int, survey_grid: tuple) -> NormalFormResult:
    """nf with Phi measured on its sample window.

    The displacement is the largest coordinate move of Phi over n_points
    random points (seed 20240816 + n), the only points a one-step build
    flows.  The last remainder is surveyed on the survey_grid tensor grid
    of (theta1, theta2, I1, I2) and its sup appended to nf.sup_remainders,
    the sups of the earlier steps: after one step f' is read off its series
    on the angle and action axes through ModeTable.outer, after more the
    grid goes through nf.remainder.
    """
    w = nf.sample_window
    rng = np.random.default_rng(20240816 + nf.steps)
    start = tuple(rng.uniform(lo, hi, n_points) for lo, hi in
                  ((0.0, 1.0), (0.0, 1.0), (w.i1_min, w.i1_max), (w.i2_min, w.i2_max)))
    moved = nf.phi_points(*start)
    displacement = float(max(np.max(np.abs(p - q)) for p, q in zip(moved, start)))
    n1, n2, m1, m2 = survey_grid
    th1, th2 = (np.linspace(0.0, 1.0, n, endpoint=False) for n in (n1, n2))
    I1, I2 = w.grid(m1, m2)
    if nf.steps == 1:
        survey = nf.first_remainder.table().outer(th1[:, None], th2[None, :], I1[:, None], I2)
    else:
        survey = nf.remainder(th1[:, None, None, None], th2[None, :, None, None], I1[:, None], I2)
    sups = nf.sup_remainders + (float(np.max(np.abs(survey))),)
    return replace(nf, displacement=displacement, sup_remainders=sups)


@serial_blas()
def one_step_normal_form(bundle: SystemBundle, *, displacement_points: int = 200) -> NormalFormResult:
    """One resonant averaging step with its remainder read off its Lie series.

    kappa is bootstrapped from the measured C^1 norm of the generator:
    kappa = max(2 gamma, 1), iterated so the final window is consistent with
    the norm measured on it; meta["kappa_rounds"] holds each round's
    (kappa tried, gamma measured), one c1_norm call each.  The first
    remainder f' is built once, as the result's first_remainder, and its
    counters join meta (first_remainder_series; a series past its caps
    raises FlowEscapeError).  The result's displacement is measured on
    displacement_points random points of the half window against the
    budget kappa epsilon / 2, and the sup of f' on a 32 x 32 x 9 x 5 grid
    of it.
    """
    system = bundle.system
    f = bundle.perturbation
    eps = bundle.epsilon
    if eps <= 0.0:
        raise ValueError("the averaging step needs epsilon > 0")
    if not system.is_reduced:
        raise ValueError("normal form expects the reduced chart; run the reduction first")
    if not verify_channel_assumptions(system).passed:
        raise ValueError("channel conditions fail; the averaging step does not apply")
    f_bar = average_over_theta2(f)

    def solve(kappa):
        """chi on the window of radius kappa eps, the bootstrap's as the final one."""
        window = star_window(system.resonance, kappa * eps)
        _require_window_inside(system, window)
        return solve_homological(system, f, choose_cutoff(eps, kappa, system.resonance.varpi, f), window)

    kappa = 1.0
    rounds = []
    for _ in range(8):
        gamma = solve(kappa).c1_norm()
        rounds.append((kappa, gamma))
        kappa_next = max(2.0 * gamma, 1.0)
        if kappa_next <= kappa * (1.0 + 1e-6):
            kappa = max(kappa, kappa_next)
            break
        kappa = kappa_next
    else:
        raise FlowEscapeError("kappa bootstrap did not settle in 8 rounds")
    # On exit kappa >= max(2 gamma, 1) for the last round's gamma, measured on
    # the window of the last kappa tried, which the final kappa exceeds by at
    # most 1e-6 relative.  AveragingStep enforces eps gamma <= kappa eps / 2.
    chi = solve(kappa)
    nf = NormalFormResult(
        bundle,
        kappa,
        (AveragingStep(chi, eps, gamma, f_bar, kappa * eps / 2.0),),
        homological_residual=_homological_residual(system, chi, f - f_bar, chi.window),
        genericity=genericity_check(f, system),
        meta={"kappa_rounds": tuple(rounds)},
    )
    series, counters = first_remainder_series(nf)
    nf = replace(nf, first_remainder=series, meta={**nf.meta, **counters})
    return _measure(nf, displacement_points, (32, 32, 9, 5))


# The first remainder's Lie series is summed up to the first order j >= 2
# whose bound on the sample window is at most SERIES_TOL of order 1's; an
# iterate term whose bound is at most PRUNE_TOL of order 1's is dropped and
# its bound added up.  A series that has not converged by order
# SERIES_MAX_ORDER, or holds more than SERIES_MAX_TERMS terms, raises
# FlowEscapeError, as does a bracket of more than SERIES_MAX_PRODUCTS term
# products (fourier.py), which is refused before it takes their memory.
SERIES_TOL = 1e-16
PRUNE_TOL = 1e-18
SERIES_MAX_ORDER = 40
SERIES_MAX_TERMS = 100_000


def first_remainder_series(nf: NormalFormResult) -> tuple[FourierPerturbation, dict]:
    """The first remainder f' of a one-step normal form as its exact Lie series.

    With ad G = {G, chi}, f_K the modes of f that chi removes (so
    {h, chi} = -f_K) and Phi the unit-time flow of eps chi,
    H o Phi = sum_j eps^j / j! ad^j H gives

        f' = (f - f_bar - f_K) / eps + sum_{j>=1} eps^(j-1) ad^j (f / j! - f_K / (j+1)!).

    Order j is P_j - Q_j, with the iterates P_1 = ad f, Q_1 = ad f_K / 2,
    P_j = eps / j ad P_(j-1) and Q_j = eps / (j+1) ad Q_(j-1).  Bounds are
    FourierPerturbation.bound on nf's sample window; the truncation and pruning
    follow SERIES_TOL, PRUNE_TOL and the caps above.  The counters are
    series_order (the last order summed), series_terms (the terms of f') and
    series_dropped_bound (the bounds of the pruned terms, added up).
    """
    if nf.steps != 1:
        raise ValueError("the first remainder series needs a one-step normal form")
    eps, f, step = nf.epsilon, nf.bundle.perturbation, nf.step1
    window = nf.sample_window
    f_K = f.filter(lambda k: k[1] != 0 and max(abs(k[0]), abs(k[1])) <= step.chi.cutoff)
    chi = step.chi.series()
    P = f.bracket(chi)
    Q = f_K.bracket(chi) * 0.5
    first = (P - Q).bound(window)
    orders = [(f - step.f_bar - f_K) * (1.0 / eps)]
    dropped = 0.0
    for j in range(1, SERIES_MAX_ORDER + 1):
        if j > 1:
            P = P.bracket(chi) * (eps / j)
            Q = Q.bracket(chi) * (eps / (j + 1))
        P, lost_p = P.pruned(window, PRUNE_TOL * first)
        Q, lost_q = Q.pruned(window, PRUNE_TOL * first)
        dropped += lost_p + lost_q
        orders.append(P - Q)
        if sum(map(len, orders)) > SERIES_MAX_TERMS:
            raise FlowEscapeError(f"the first remainder series passed {SERIES_MAX_TERMS} terms at order {j}")
        if j >= 2 and orders[-1].bound(window) <= SERIES_TOL * first:
            break
    else:
        raise FlowEscapeError(f"the first remainder series did not converge by order {SERIES_MAX_ORDER}")
    series = FourierPerturbation.concatenate(orders)
    return series, {"series_order": j, "series_terms": len(series), "series_dropped_bound": dropped}


# Settings of the second step: a mode's amplitude is the largest |c_k| of f'
# over AMPLITUDE_GRID action nodes (Chebyshev-Lobatto in I1) of the half window, and
# the modes up to CUTOFF2 whose amplitude reaches MODE_THRESHOLD of the
# largest are kept.
AMPLITUDE_GRID = (17, 9)
CUTOFF2 = 64
MODE_THRESHOLD = 1e-10


def _kept_first_remainder(s1: NormalFormResult, k_max: int):
    """The kept modes of s1's first remainder f' (s1.first_remainder), with their count.

    They are (0, 0) and the canonical modes with |k| <= k_max whose amplitude
    is nonzero and reaches MODE_THRESHOLD of the largest amplitude.
    """
    series = s1.first_remainder
    n1, n2 = AMPLITUDE_GRID
    I1_nodes, I2_nodes = s1.sample_window.grid(n1, n2, lobatto_i1=True)
    table = series.table()
    K = table.K
    a, b = table.coefficients(np.repeat(I1_nodes, n2), np.tile(I2_nodes, n1))
    # |c_k| is |a_k - i b_k| / 2, and the mean's |a_0|
    mean = np.all(K == 0, axis=1)
    amplitude = np.max(np.hypot(a, b), axis=1) * np.where(mean, 1.0, 0.5)
    floor = MODE_THRESHOLD * float(np.max(amplitude, initial=0.0))
    loud = ~mean & (np.max(np.abs(K), axis=1) <= k_max) & (amplitude > 0.0) & (amplitude >= floor)
    kept = {(0, 0)} | {tuple(k) for k in K[loud].tolist()}
    return series.filter(kept.__contains__), len(kept)


@serial_blas()
def two_step_normal_form(
    bundle: SystemBundle,
    step1: NormalFormResult | None = None,
    *,
    theta_grid: int = 128,
    displacement_points: int = 200,
) -> NormalFormResult:
    """Second averaging step on the exact first remainder.

    step1 is the one-step normal form of this same bundle, built when not
    given; any other result raises ValueError.  The first remainder f' is
    its first_remainder, the truncated Lie series, rational in the actions
    whether or not f depends on them.  theta_grid sets the second cutoff
    K2 = min(CUTOFF2, theta_grid // 2 - 1), which must be at least 1 (else
    ValueError).  The kept modes of f' are solved at scale epsilon^2 as they
    stand: chi2's mode k is f'_k / (2 pi i k.omega) and f_bar_2 the k2 = 0
    part.  The displacement is measured on displacement_points points of the
    quarter window and the final remainder's sup on a 32 x 32 x 7 x 3 grid,
    whose points are flowed through Phi_2 alone (NormalFormResult.remainder).
    """
    if step1 is not None and (step1.steps != 1 or step1.bundle is not bundle):
        raise ValueError("step1 must be a one-step normal form of the same bundle")
    k_max = min(CUTOFF2, int(theta_grid) // 2 - 1)
    if k_max < 1:
        raise ValueError(f"theta_grid = {theta_grid} gives the second cutoff K2 = {k_max}; "
                         "K2 = min(CUTOFF2, theta_grid // 2 - 1) must be at least 1")
    s1 = step1 or one_step_normal_form(bundle)
    eps = bundle.epsilon
    n = s1.steps

    f_prime, n_kept = _kept_first_remainder(s1, k_max)
    chi2 = solve_homological(bundle.system, f_prime, k_max, s1.sample_window)
    step2 = AveragingStep(chi2, eps ** (n + 1), chi2.c1_norm(), average_over_theta2(f_prime),
                          s1.kappa * eps / 2 ** (n + 1))
    nf = replace(s1, averaging_steps=s1.averaging_steps + (step2,), meta={**s1.meta, "n_kept_modes": n_kept})
    return _measure(nf, displacement_points, (32, 32, 7, 3))
