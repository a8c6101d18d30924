"""Resonant averaging, homological solves and measured normal forms.

The averaging step splits a perturbation into its resonant part (modes
constant along the channel flow) and an oscillating part, solves the
homological equation omega . d_theta chi = oscillating part mode by mode, and
conjugates the system by the unit-time flow of epsilon * chi.  A normal form
is a NormalFormResult: its bundle and its AveragingSteps, whose composition
Phi = Phi_1 o ... o Phi_n the result applies (phi, phi_points) and whose
remainder it samples.  Remainders are never estimated symbolically: they are
sampled operationally by composing the numerical flow with the Hamiltonian
and dividing out the expected power of epsilon.  The second step repeats the
construction on the sampled first remainder after projecting it back onto a
finite Fourier/polynomial representation by least squares; the fit carries
the action dependence of every kept coefficient, so it serves any
perturbation, with or without action-dependent coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import polynomial as npoly

from .blas import serial_blas
from .errors import DomainError, FlowEscapeError, SmallDivisorError, WindowFitError
from .fourier import TWO_PI, FourierPerturbation, ModeTable
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

    Every stored mode has k2 != 0, sup-norm |k| <= cutoff, and satisfies the
    small-divisor bound |k.omega| >= varpi/2 on the working window (verified
    on a grid at construction; the grid's smallest |k.omega| is kept as
    min_divisor, None when there is no mode).  The numerators sit in one
    divided ModeTable, whose divisors and their action derivatives come from
    the shared omega and its Jacobian; values and first derivatives follow
    the quotient rule on polynomial data, so no differencing enters the flows.
    """

    def __init__(self, system: IntegrableSystem, numerators: dict, cutoff: int, window: ActionWindow):
        self.cutoff = int(cutoff)
        self.window = window
        self.varpi = system.resonance.varpi
        self._numerators = {}
        for k, (nc, ns) in sorted(numerators.items()):
            k1, k2 = int(k[0]), int(k[1])
            if k2 == 0:
                raise SmallDivisorError("generator modes must have k2 != 0")
            if max(abs(k1), abs(k2)) > self.cutoff:
                raise SmallDivisorError(f"mode {k} exceeds the cutoff {self.cutoff}")
            self._numerators[(k1, k2)] = (nc, ns)
        self._table = ModeTable(self._numerators, omega=system.omega_polys())
        self._verify_divisors()

    # -- structure ---------------------------------------------------------------

    @property
    def mode_keys(self):
        return sorted(self._numerators)

    @property
    def is_zero(self) -> bool:
        return not self._numerators

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

    Modes with k2 = 0 belong to the resonant average and contribute nothing;
    every other retained mode k gets the closed-form coefficient pair
    (-b_k, a_k) / (2 pi k.omega(I)).  Small divisors are guarded on the
    window grid at construction of the generator.
    """
    numerators = {}
    for k, (a, b) in f.modes.items():
        if k[1] == 0:
            continue
        if max(abs(k[0]), abs(k[1])) > cutoff:
            continue
        numerators[k] = (-1.0 * b, a)
    return GeneratorChi(system, numerators, cutoff, window)


# -- normal form results ------------------------------------------------------------


@dataclass(frozen=True)
class AveragingStep:
    """One averaging step: the unit-time flow Phi_n of scale * chi.

    Step n averages at scale = epsilon**n.  chi carries its Fourier cutoff
    and its window, on which it is guarded and flowed; gamma is its measured
    C^1 norm, f_bar the resonant correction the step adds to the normal
    form, and budget the displacement the scalar flow may make
    (kappa epsilon / 2**n).  A step whose scale * gamma exceeds its budget
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
    first step first, so they invert Phi.  remainder samples the last
    remainder (H o Phi - h - sum_j eps^j f_bar_j) / eps^(n+1), and
    sup_remainders[j] is the sup of the remainder left after step j + 1.
    The sample window and the displacement bound follow from the steps.
    The builder measures the displacement of Phi and the last remainder's
    sup on the sample window (_measure); every sup, residual and
    displacement is a grid measurement.  as_dict is the normal_form.json
    record.
    """

    bundle: SystemBundle
    kappa: float
    averaging_steps: tuple[AveragingStep, ...]
    homological_residual: float
    genericity: GenericityReport
    meta: dict = field(default_factory=dict)
    displacement: float = math.nan
    sup_remainders: tuple[float, ...] = ()

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
        record.update({k: self.meta[k] for k in ("fit_residual", "n_kept_modes") if k in self.meta})
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
        """Sampled remainder (H o Phi - h - sum_j eps^j f_bar_j) / eps^(n+1); both are one series."""
        moved = self.bundle.hamiltonian(*self.phi_points(th1, th2, I1, I2))
        f_bar = sum((step.scale * step.f_bar for step in self.averaging_steps), FourierPerturbation.zero())
        base = hamiltonian_series(self.bundle.system.h, f_bar)(th1, th2, I1, I2)
        return (moved - base) / self.epsilon ** (self.steps + 1)


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
    random points (seed 20240816 + n); the last remainder is surveyed on the
    survey_grid tensor grid of (theta1, theta2, I1, I2) and its sup appended
    to nf.sup_remainders, the sups of the earlier steps.
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
    survey = nf.remainder(th1[:, None, None, None], th2[None, :, None, None], I1[:, None], I2)
    sups = nf.sup_remainders + (float(np.max(np.abs(survey))),)
    return replace(nf, displacement=displacement, sup_remainders=sups)


@serial_blas()
def one_step_normal_form(bundle: SystemBundle, *, displacement_points: int = 200) -> NormalFormResult:
    """One resonant averaging step with operationally sampled remainder.

    kappa is bootstrapped from the measured C^1 norm of the generator:
    kappa = max(2 gamma, 1), iterated so the final window is consistent with
    the norm measured on it; meta["kappa_rounds"] holds each round's
    (kappa tried, gamma measured), one c1_norm call each.  The result's
    displacement is measured on displacement_points random points of the
    half window against the budget kappa epsilon / 2, and its remainder's
    sup on a 32 x 32 x 9 x 5 grid of it.
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
    return _measure(nf, displacement_points, (32, 32, 9, 5))


def _chebyshev_fit_polyfields(window, I1_nodes, I2_nodes, targets, degrees):
    """Least-squares tensor Chebyshev fit of sampled coefficient tables.

    targets is a (n_targets, n1, n2) stack; the return is a list of PolyField
    objects in the raw action variables, one per target.  Each axis is fitted
    in its window's variable u = (I - c) / h; column j of the axis's matrix M
    holds T_j(u) in raw powers of I, so a fitted table C is M1 @ C @ M2.T in
    the power basis.
    """
    scaled, basis = [], []
    for nodes, lo, hi, d in ((I1_nodes, window.i1_min, window.i1_max, degrees[0]),
                             (I2_nodes, window.i2_min, window.i2_max, degrees[1])):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0
        M = np.zeros((d + 1, d + 1))
        for j in range(d + 1):
            T_j = ncheb.Chebyshev.basis(j, domain=[c - h, c + h])
            M[: j + 1, j] = T_j.convert(kind=npoly.Polynomial).coef
        scaled.append((nodes - c) / h)
        basis.append(M)
    # rows of the tensor Vandermonde run over (I1 node, I2 node), columns over (T_i, T_j)
    B = np.kron(ncheb.chebvander(scaled[0], degrees[0]), ncheb.chebvander(scaled[1], degrees[1]))
    coef, *_ = np.linalg.lstsq(B, targets.reshape(len(targets), -1).T, rcond=None)
    tables = basis[0] @ coef.T.reshape(-1, degrees[0] + 1, degrees[1] + 1) @ basis[1].T
    return [PolyField(t) for t in tables]


# Settings of the second step's fit: f' is sampled on FIT_I_GRID action
# nodes (Chebyshev in I1) of the half window, modes up to CUTOFF2 whose
# amplitude reaches MODE_THRESHOLD of the largest are kept, their
# coefficients are fitted with Chebyshev degrees FIT_DEGREES in (I1, I2),
# and the fit may miss f' on the sampling grid by RESIDUAL_BUDGET x sup|f'|.
FIT_I_GRID = (17, 9)
FIT_DEGREES = (12, 4)
CUTOFF2 = 64
MODE_THRESHOLD = 1e-10
RESIDUAL_BUDGET = 1e-6


@serial_blas()
def two_step_normal_form(
    bundle: SystemBundle,
    step1: NormalFormResult | None = None,
    *,
    theta_grid: int = 128,
    displacement_points: int = 200,
) -> NormalFormResult:
    """Second averaging step on the sampled first remainder.

    step1 is the one-step normal form of this same bundle, built when not
    given; any other result raises ValueError.  The first remainder is
    sampled on a theta_grid^2 x FIT_I_GRID grid over the half window,
    analyzed by FFT in the angles, and each retained coefficient's action
    dependence is fitted by least-squares polynomials (Chebyshev basis,
    higher degree along the wide I1 direction, low degree across the thin I2
    direction).  The remainder is action dependent whether or not f is, so
    one path serves every perturbation.  The fitted series drives a second
    homological solve at scale epsilon^2; the displacement is measured on
    displacement_points points of the quarter window and the final
    remainder's sup on a 32 x 32 x 7 x 3 grid of it.
    """
    if step1 is not None and (step1.steps != 1 or step1.bundle is not bundle):
        raise ValueError("step1 must be a one-step normal form of the same bundle")
    s1 = step1 or one_step_normal_form(bundle)
    eps = bundle.epsilon
    n = s1.steps
    half = s1.sample_window

    n_th = int(theta_grid)
    n1, n2 = FIT_I_GRID
    th = np.linspace(0.0, 1.0, n_th, endpoint=False)
    I1_nodes, I2_nodes = half.grid(n1, n2, chebyshev_i1=True)
    angles = (th[:, None, None, None], th[None, :, None, None])
    f_prime = s1.remainder(*angles, I1_nodes[:, None], I2_nodes)
    sup_grid = float(np.max(np.abs(f_prime)))

    spectrum = np.fft.fft2(f_prime, axes=(0, 1)) / (n_th * n_th)
    amplitude = np.max(np.abs(spectrum), axis=(2, 3))
    k_max = min(CUTOFF2, n_th // 2 - 1)
    floor = MODE_THRESHOLD * float(np.max(amplitude))

    # (0, 0), then in (k1, k2) order the canonical modes up to k_max (first
    # nonzero component positive) whose amplitude is nonzero and reaches the
    # floor; an exactly zero f' keeps the mean alone
    k1 = np.arange(k_max + 1)[:, None]
    k2 = np.arange(-k_max, k_max + 1)
    a = amplitude[k1 % n_th, k2 % n_th]
    loud = ((k1 > 0) | (k2 > 0)) & (a > 0.0) & (a >= floor)
    kept = np.concatenate([[[0, 0]], np.argwhere(loud) - [0, k_max]])

    # the cos and sin targets of every kept mode; the mean counts once
    c = spectrum[kept[:, 0] % n_th, kept[:, 1] % n_th]
    weight = np.full((len(kept), 1, 1), 2.0)
    weight[0] = 1.0
    targets = np.stack([weight * c.real, -weight * c.imag], axis=1).reshape(-1, n1, n2)
    polys = _chebyshev_fit_polyfields(half, I1_nodes, I2_nodes, targets, FIT_DEGREES)
    f_prime_fit = FourierPerturbation.from_terms(zip(map(tuple, kept), polys[::2], polys[1::2]))

    # residual of the full reconstruction on the sampling grid, a tensor grid
    recon = f_prime_fit.table().outer(th[:, None], th[None, :], I1_nodes[:, None], I2_nodes[None, :])
    recon = recon.transpose(2, 3, 0, 1)
    fit_residual = float(np.max(np.abs(f_prime - recon)))
    scale = max(sup_grid, 1e-300)
    if fit_residual > RESIDUAL_BUDGET * scale:
        raise WindowFitError(
            f"coefficient fit residual {fit_residual:.3e} exceeds "
            f"{RESIDUAL_BUDGET:.1e} x sup|f'| = {RESIDUAL_BUDGET * scale:.3e}; "
            "the window is too wide for the fitted degrees"
        )

    chi2 = solve_homological(bundle.system, f_prime_fit, k_max, half)
    step2 = AveragingStep(chi2, eps ** (n + 1), chi2.c1_norm(), average_over_theta2(f_prime_fit),
                          s1.kappa * eps / 2 ** (n + 1))
    nf = replace(s1, averaging_steps=s1.averaging_steps + (step2,), meta={
        **s1.meta, "sup_f_prime_grid": sup_grid, "n_kept_modes": len(kept), "fit_residual": fit_residual,
    })
    return _measure(nf, displacement_points, (32, 32, 7, 3))
