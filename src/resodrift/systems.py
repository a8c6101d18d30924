"""System containers: integrable part, resonance channel data, full bundles.

A system is h(I) + epsilon * f(theta, I) on T^2 x B_R with B_R the sup-norm
box of radius R.  The resonance data records the line {k.I + a = 0}, the
channel segment S on it, the working subsegment S* and the transverse
frequency floor varpi.  In reduced coordinates the line is {I2 = 0}, the
channel conditions read omega1(I1, 0) = 0 on S1 and omega2(I1, 0) >= varpi
on S1*, and most of the package operates in that chart.

A bundle holds H = h + epsilon * f as one series with h on the mode (0, 0),
so H and its vector field are read off one ModeTable.  A system definition
file that is malformed or breaks a constructor's rule raises UsageError.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, UsageError
from .fourier import FourierPerturbation
from .poly import PolyField

LINE_TOL = 1e-10


@dataclass(frozen=True)
class ResonanceData:
    """Resonance line {k.I + a = 0} with its channel segment and floor.

    S and S_star are endpoint pairs ((x, y), (x, y)) lying on the line, with
    S_star contained in S.  varpi is the positive lower bound for the
    transverse frequency along S_star.
    """

    k: tuple[int, int]
    a: float
    S: tuple[tuple[float, float], tuple[float, float]]
    S_star: tuple[tuple[float, float], tuple[float, float]]
    varpi: float
    delta_star: Optional[float] = None

    def __post_init__(self):
        k = (int(self.k[0]), int(self.k[1]))
        if k == (0, 0):
            raise ValueError("resonance wave vector must be nonzero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "varpi", float(self.varpi))
        S = tuple(tuple(float(x) for x in p) for p in self.S)
        S_star = tuple(tuple(float(x) for x in p) for p in self.S_star)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S_star", S_star)
        if not self.varpi > 0:  # NaN fails too
            raise ValueError("varpi must be positive")
        for p in (*S, *S_star):
            if abs(k[0] * p[0] + k[1] * p[1] + self.a) > LINE_TOL:
                raise ValueError(f"segment endpoint {p} is not on the resonance line")
        # S* must sit inside S (compare via the parameterization of the line).
        t0, t1 = self._param(S_star[0]), self._param(S_star[1])
        if not (-LINE_TOL <= min(t0, t1) and max(t0, t1) <= 1 + LINE_TOL):
            raise ValueError("S_star must be contained in S")

    def _param(self, point) -> float:
        """Parameter of a point along S (0 at S[0], 1 at S[1])."""
        p0 = np.array(self.S[0])
        p1 = np.array(self.S[1])
        d = p1 - p0
        return float(np.dot(np.array(point) - p0, d) / np.dot(d, d))

    @property
    def line_direction(self) -> tuple[int, int]:
        """Primitive integer direction of the resonance line."""
        u1, u2 = self.k[1], -self.k[0]
        g = math.gcd(u1, u2)
        return (u1 // g, u2 // g)

    @property
    def is_reduced(self) -> bool:
        """True when the line is {I2 = 0} in standard orientation."""
        return self.k in ((0, 1), (0, -1)) and self.a == 0.0

    def segment_points(self, n: int, star: bool = False) -> np.ndarray:
        """(n, 2) array of equally spaced samples along S (or S_star)."""
        seg = self.S_star if star else self.S
        t = np.linspace(0.0, 1.0, n)[:, None]
        p0 = np.array(seg[0])[None, :]
        p1 = np.array(seg[1])[None, :]
        return p0 + t * (p1 - p0)

    def s1_interval(self, star: bool = False) -> tuple[float, float]:
        """I1 interval of S (or S_star) for a reduced system."""
        if not self.is_reduced:
            raise ValueError("s1_interval requires a reduced resonance")
        seg = self.S_star if star else self.S
        lo, hi = sorted((seg[0][0], seg[1][0]))
        return lo, hi


@dataclass(frozen=True)
class ActionWindow:
    """Axis-aligned action box, used as the working window of the averaging step."""

    i1_min: float
    i1_max: float
    i2_min: float
    i2_max: float

    def grid(self, n1: int, n2: int, chebyshev_i1: bool = False):
        """1-D node arrays (I1, I2) covering the window."""
        if chebyshev_i1:
            # Chebyshev-Lobatto nodes keep high-degree fits well conditioned.
            j = np.arange(n1)
            x = np.cos(np.pi * j / (n1 - 1))[::-1]
            c = 0.5 * (self.i1_min + self.i1_max)
            h = 0.5 * (self.i1_max - self.i1_min)
            I1 = c + h * x
        else:
            I1 = np.linspace(self.i1_min, self.i1_max, n1)
        I2 = np.linspace(self.i2_min, self.i2_max, n2)
        return I1, I2

    def contains(self, I1, I2, margin: float = 0.0):
        return (
            (np.asarray(I1) >= self.i1_min - margin)
            & (np.asarray(I1) <= self.i1_max + margin)
            & (np.asarray(I2) >= self.i2_min - margin)
            & (np.asarray(I2) <= self.i2_max + margin)
        )

    @property
    def sup_radius(self) -> float:
        return max(abs(self.i1_min), abs(self.i1_max), abs(self.i2_min), abs(self.i2_max))


def star_window(resonance: ResonanceData, margin: float) -> ActionWindow:
    """Sup-norm neighborhood of S_star of the given radius, reduced chart only."""
    lo, hi = resonance.s1_interval(star=True)
    return ActionWindow(lo - margin, hi + margin, -margin, margin)


class IntegrableSystem:
    """Polynomial integrable Hamiltonian h(I) on B_R with resonance data.

    The frequency map omega = grad h is the pair of exact partials of h's
    coefficient table, kept as polynomials for the divided generator tables.
    """

    def __init__(self, h: PolyField, R: float, resonance: ResonanceData):
        self.h = h
        self.R = float(R)
        self.resonance = resonance
        self._d1 = h.partial(1, 0)
        self._d2 = h.partial(0, 1)
        if not self.R > 0:  # NaN fails too
            raise ValueError("domain radius must be positive")
        for p in resonance.S:
            if max(abs(p[0]), abs(p[1])) > self.R + LINE_TOL:
                raise DomainError(f"channel endpoint {p} outside B_R (R={self.R})")

    def omega(self, I1, I2) -> np.ndarray:
        """Frequency vector grad h at I1, I2 broadcast together, stacked along a leading axis."""
        return np.stack([self._d1(I1, I2), self._d2(I1, I2)])

    def omega_polys(self) -> tuple[PolyField, PolyField]:
        return self._d1, self._d2

    @property
    def is_reduced(self) -> bool:
        return self.resonance.is_reduced


def hamiltonian_series(h: PolyField, f: FourierPerturbation) -> FourierPerturbation:
    """h(I) + f(theta, I) as one series, with h on the mode (0, 0)."""
    return FourierPerturbation({(0, 0): (h, PolyField.zero())}) + f


class SystemBundle:
    """Full Hamiltonian H = h(I) + epsilon * f(theta, I) on T^2 x B_R, held as one series."""

    def __init__(self, system: IntegrableSystem, perturbation: FourierPerturbation, epsilon: float):
        epsilon = float(epsilon)
        # epsilon = 0 is admitted so the unperturbed limit stays testable.
        if not (0.0 <= epsilon < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        self.system = system
        self.perturbation = perturbation
        self.epsilon = epsilon
        self.series = hamiltonian_series(system.h, epsilon * perturbation)

    def hamiltonian(self, theta1, theta2, I1, I2):
        return self.series(theta1, theta2, I1, I2)

    def vector_field(self, theta1, theta2, I1, I2):
        """(dtheta/dt, dI/dt) = (dH/dI, -dH/dtheta), each stacked along a leading axis of length 2.

        A single state, given as real scalars, gives two lists of two floats.
        """
        rows = self.series.table().evaluate(theta1, theta2, I1, I2)
        if isinstance(rows, list):
            _, d1, d2, g1, g2 = rows
            return [g1, g2], [-d1, -d2]
        return rows[3:5], -rows[1:3]

    def rhs(self):
        """Right-hand side f(t, y) on flat states y = [th1, th2, I1, I2].

        Accepts y of shape (4,) or (4, n); the returned array matches.  A (4,)
        state is unpacked into floats, so it takes the table's single-point
        branch.
        """

        def fun(_t, y):
            if y.ndim == 1:
                angles, actions = self.vector_field(*y.tolist())
                return np.array(angles + actions)
            return np.concatenate(self.vector_field(*y))

        return fun

    def energy_of(self, y: np.ndarray):
        """Hamiltonian evaluated on flat states (samples along an orbit)."""
        y = np.asarray(y, dtype=float)
        return self.hamiltonian(y[..., 0], y[..., 1], y[..., 2], y[..., 3])


@dataclass(frozen=True)
class ChannelReport:
    """Result of the channel checks along S and S_star.

    max_abs_omega1 is the largest along-line frequency on S (must vanish: the
    integrable part is constant on the channel).  min_omega2 is the smallest
    transverse frequency on S_star (must clear varpi).
    """

    max_abs_omega1: float
    min_omega2: float
    varpi: float
    passed: bool
    n_samples: int

    def as_dict(self) -> dict:
        return asdict(self)


# points of S and of S_star at which verify_channel_assumptions samples omega
CHANNEL_SAMPLES = 201


def verify_channel_assumptions(system: IntegrableSystem) -> ChannelReport:
    """Check the two channel conditions for h along its resonance segment.

    Along-line: the frequency component along the line direction vanishes on
    S (up to 1e-10), i.e. h restricted to the channel is constant.
    Transverse: the frequency component conjugate to the line parameter stays
    at or above varpi on S_star.  In reduced coordinates these are exactly
    max |omega1(I1, 0)| on S1 and min omega2(I1, 0) on S1*.
    """
    res = system.resonance
    u = np.array(res.line_direction, dtype=float)
    pts = res.segment_points(CHANNEL_SAMPLES, star=False)
    om = system.omega(pts[:, 0], pts[:, 1])
    along = om[0] * u[0] + om[1] * u[1]
    max_abs_omega1 = float(np.max(np.abs(along)))

    pts_star = res.segment_points(CHANNEL_SAMPLES, star=True)
    om_star = system.omega(pts_star[:, 0], pts_star[:, 1])
    k = np.array(res.k, dtype=float)
    # On the channel omega is parallel to k, so the transverse frequency is
    # the scalar factor (omega . k) / |k|^2; in the reduced chart this is
    # omega2 itself.
    transverse = (om_star[0] * k[0] + om_star[1] * k[1]) / float(k @ k)
    min_omega2 = float(np.min(transverse))

    passed = max_abs_omega1 <= LINE_TOL and min_omega2 >= res.varpi - LINE_TOL
    return ChannelReport(max_abs_omega1, min_omega2, res.varpi, bool(passed), CHANNEL_SAMPLES)


# -- system definition files ----------------------------------------------------

_TOP_KEYS = {"h", "modes", "R", "resonance"}
_MODE_KEYS = {"k", "cos", "sin"}
_RES_KEYS = {"k", "a", "S", "Sstar", "varpi", "delta_star"}


def _check_keys(obj: dict, allowed: set, where: str, required: tuple):
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    for key in required:
        if key not in obj:
            raise UsageError(f"{where} is missing key {key!r}")


# a polynomial degree above this in either action is rejected before any
# coefficient table is allocated; the catalog's largest is 2
MAX_DEGREE = 32

# a wave-vector component above this in size is rejected, so the reduction's
# integer products of two components stay far inside int64
MAX_WAVE = 10**6


def _number(value, where: str) -> float:
    """A finite JSON number (true and false are not numbers)."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        finite = False
    if not finite:
        raise UsageError(f"{where} must be a finite number")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON number with an integer value, as polynomial degrees and wave vectors are."""
    if _number(value, where) != int(value):
        raise UsageError(f"{where} must be an integer")
    return int(value)


def _pair(entry, where: str, item) -> tuple:
    """A JSON list of exactly two entries, each read by item(entry, where)."""
    if not (isinstance(entry, list) and len(entry) == 2):
        raise UsageError(f"{where} must be a list of two entries")
    return tuple(item(v, where) for v in entry)


def _wave(value, where: str) -> int:
    k = _integer(value, where)
    if abs(k) > MAX_WAVE:
        raise UsageError(f"{where} must have components of size at most {MAX_WAVE}")
    return k


def _point(entry, where: str) -> tuple[float, float]:
    return _pair(entry, f"an endpoint of {where}", _number)


def _poly_from_json(entry, where: str) -> PolyField:
    if not isinstance(entry, list):
        raise UsageError(f"{where} must be a list of [deg_I1, deg_I2, coeff] triples")
    terms = []
    for triple in entry:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise UsageError(f"{where} must be a list of [deg_I1, deg_I2, coeff] triples")
        i, j = (_integer(d, f"a degree in {where}") for d in triple[:2])
        if not (0 <= i <= MAX_DEGREE and 0 <= j <= MAX_DEGREE):
            raise UsageError(f"bad polynomial degrees in {where}: each lies in [0, {MAX_DEGREE}]")
        terms.append((i, j, _number(triple[2], f"a coefficient in {where}")))
    return PolyField.from_terms(terms)


def _poly_to_json(p: PolyField) -> list:
    return [[i, j, c] for i, j, c in p.to_terms()]


def _built(cls, *args, **kwargs):
    """cls(*args, **kwargs), with a broken constructor rule raised as UsageError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:  # DomainError is a ValueError
        raise UsageError(str(exc)) from exc


def load_system(data: dict) -> tuple[IntegrableSystem, FourierPerturbation]:
    """Build a system from a parsed definition dict; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise UsageError("system definition must be a JSON object")
    _check_keys(data, _TOP_KEYS, "system definition", ("h", "modes", "R", "resonance"))
    h = _poly_from_json(data["h"], "h")
    res_raw = data["resonance"]
    if not isinstance(res_raw, dict):
        raise UsageError("resonance must be a JSON object")
    _check_keys(res_raw, _RES_KEYS, "resonance", ("k", "a", "S", "Sstar", "varpi"))
    resonance = _built(
        ResonanceData,
        k=_pair(res_raw["k"], "resonance.k", _wave),
        a=_number(res_raw["a"], "resonance.a"),
        S=_pair(res_raw["S"], "resonance.S", _point),
        S_star=_pair(res_raw["Sstar"], "resonance.Sstar", _point),
        varpi=_number(res_raw["varpi"], "resonance.varpi"),
        delta_star=(
            _number(res_raw["delta_star"], "resonance.delta_star")
            if res_raw.get("delta_star") is not None else None
        ),
    )
    terms = []
    if not isinstance(data["modes"], list):
        raise UsageError("modes must be a list")
    for idx, mode in enumerate(data["modes"]):
        where = f"modes[{idx}]"
        if not isinstance(mode, dict):
            raise UsageError(f"{where} must be a JSON object")
        _check_keys(mode, _MODE_KEYS, where, ("k",))
        k = _pair(mode["k"], f"{where}.k", _wave)
        cos = _poly_from_json(mode.get("cos", []), f"{where}.cos")
        sin = _poly_from_json(mode.get("sin", []), f"{where}.sin")
        terms.append((k, cos, sin))
    f = FourierPerturbation.from_terms(terms)
    system = _built(IntegrableSystem, h, _number(data["R"], "R"), resonance)
    return system, f


def load_system_file(path) -> tuple[IntegrableSystem, FourierPerturbation]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"could not parse system file {path}: {exc}") from exc
    return load_system(data)


def system_to_dict(system: IntegrableSystem, f: FourierPerturbation) -> dict:
    res = system.resonance
    out = {
        "h": _poly_to_json(system.h),
        "modes": [
            {"k": [k[0], k[1]], "cos": _poly_to_json(a), "sin": _poly_to_json(b)}
            for k, (a, b) in sorted(f.modes.items())
        ],
        "R": system.R,
        "resonance": {
            "k": [res.k[0], res.k[1]],
            "a": res.a,
            "S": [list(res.S[0]), list(res.S[1])],
            "Sstar": [list(res.S_star[0]), list(res.S_star[1])],
            "varpi": res.varpi,
        },
    }
    if res.delta_star is not None:
        out["resonance"]["delta_star"] = res.delta_star
    return out
