"""Finite real Fourier series on T^2 with polynomial action coefficients.

A perturbation is stored as

    f(theta, I) = sum_k  a_k(I) cos(2 pi k.theta) + b_k(I) sin(2 pi k.theta)

over a finite set of integer wave vectors k, with a_k and b_k exact
:class:`~resodrift.poly.PolyField` coefficients.  Keys are canonicalized so the
series is real by construction: each stored k has its first nonzero component
positive, and the reflected term is folded in through the parity of cos/sin.

Angle derivatives rotate the cos/sin pair and scale by 2 pi k; action
derivatives differentiate the coefficient polynomials.  Both are closed form,
which is what downstream consumers (vector fields, homological solves, norm
estimates) rely on.
"""

from __future__ import annotations

import numpy as np

from .poly import PolyField

TWO_PI = 2.0 * np.pi


def canonical_mode(k) -> tuple[tuple[int, int], int]:
    """Canonical representative of a wave vector and the sign flip applied.

    Returns ((k1, k2), s) with s = +1 if k was already canonical, -1 if the
    stored key is -k.  Zero is its own representative.
    """
    k1, k2 = int(k[0]), int(k[1])
    if (k1, k2) == (0, 0):
        return (0, 0), 1
    if k1 < 0 or (k1 == 0 and k2 < 0):
        return (-k1, -k2), -1
    return (k1, k2), 1


class FourierPerturbation:
    """Finite trigonometric polynomial on T^2 with PolyField coefficients."""

    __slots__ = ("_modes", "_partial_cache")

    def __init__(self, modes: dict | None = None):
        self._modes: dict[tuple[int, int], tuple[PolyField, PolyField]] = {}
        self._partial_cache: dict = {}
        if modes:
            for k, (a, b) in modes.items():
                self._accumulate(k, a, b)
        self._prune()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_terms(cls, terms) -> "FourierPerturbation":
        """Build from an iterable of (k, cos_coeff, sin_coeff).

        Coefficients may be floats or PolyField instances; wave vectors may be
        any integer pairs and are canonicalized (with the sin parity flip)
        before storage.
        """
        out = cls()
        for k, a, b in terms:
            out._accumulate(k, a, b)
        out._prune()
        return out

    @classmethod
    def zero(cls) -> "FourierPerturbation":
        return cls()

    def _accumulate(self, k, a, b):
        a = PolyField._coerce(a)
        b = PolyField._coerce(b)
        key, sign = canonical_mode(k)
        if sign < 0:
            b = -b  # sin is odd, cos is even
        if key == (0, 0):
            b = PolyField.zero()  # sin(0) contributes nothing
        old_a, old_b = self._modes.get(key, (PolyField.zero(), PolyField.zero()))
        self._modes[key] = (old_a + a, old_b + b)
        self._partial_cache.clear()

    def _prune(self):
        dead = [k for k, (a, b) in self._modes.items() if a.is_zero and b.is_zero]
        for k in dead:
            del self._modes[k]

    # -- queries ----------------------------------------------------------------

    @property
    def modes(self) -> dict:
        return dict(self._modes)

    @property
    def mode_keys(self):
        return sorted(self._modes.keys())

    @property
    def n_modes(self) -> int:
        return len(self._modes)

    @property
    def max_mode(self) -> int:
        """Largest sup-norm |k| over stored wave vectors (0 for an empty series)."""
        if not self._modes:
            return 0
        return max(max(abs(k[0]), abs(k[1])) for k in self._modes)

    @property
    def is_zero(self) -> bool:
        return not self._modes

    @property
    def is_action_independent(self) -> bool:
        return all(a.is_constant and b.is_constant for a, b in self._modes.values())

    def coefficient(self, k) -> tuple[PolyField, PolyField]:
        """(cos, sin) coefficient pair for the canonical representative of k."""
        key, sign = canonical_mode(k)
        a, b = self._modes.get(key, (PolyField.zero(), PolyField.zero()))
        if sign < 0:
            b = -b
        return a, b

    def filter(self, predicate) -> "FourierPerturbation":
        """New series keeping only modes whose canonical key satisfies predicate."""
        kept = {k: ab for k, ab in self._modes.items() if predicate(k)}
        return FourierPerturbation(kept)

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, theta1, theta2, I1, I2):
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        I1 = np.asarray(I1, dtype=float)
        I2 = np.asarray(I2, dtype=float)
        total = np.zeros(np.broadcast(theta1, theta2, I1, I2).shape)
        for (k1, k2), (a, b) in self._modes.items():
            phase = TWO_PI * (k1 * theta1 + k2 * theta2)
            term = np.zeros_like(total)
            if not a.is_zero:
                term = term + a(I1, I2) * np.cos(phase)
            if not b.is_zero:
                term = term + b(I1, I2) * np.sin(phase)
            total = total + term
        if total.shape == ():
            return float(total)
        return total

    evaluate = __call__

    # -- calculus ----------------------------------------------------------------

    def _single_theta_partial(self, axis: int) -> "FourierPerturbation":
        new = {}
        for (k1, k2), (a, b) in self._modes.items():
            kk = k1 if axis == 0 else k2
            if kk == 0:
                continue
            factor = TWO_PI * kk
            # d/dtheta [a cos + b sin] = factor * (b cos - a sin)
            new[(k1, k2)] = (factor * b, (-factor) * a)
        return FourierPerturbation(new)

    def _single_action_partial(self, axis: int) -> "FourierPerturbation":
        new = {}
        for k, (a, b) in self._modes.items():
            da = a.partial(1, 0) if axis == 0 else a.partial(0, 1)
            db = b.partial(1, 0) if axis == 0 else b.partial(0, 1)
            new[k] = (da, db)
        return FourierPerturbation(new)

    def partial(self, d_theta1=0, d_theta2=0, d_I1=0, d_I2=0) -> "FourierPerturbation":
        """Exact mixed partial derivative, returned as a new series."""
        key = (d_theta1, d_theta2, d_I1, d_I2)
        cached = self._partial_cache.get(key)
        if cached is not None:
            return cached
        out = self
        for _ in range(d_theta1):
            out = out._single_theta_partial(0)
        for _ in range(d_theta2):
            out = out._single_theta_partial(1)
        for _ in range(d_I1):
            out = out._single_action_partial(0)
        for _ in range(d_I2):
            out = out._single_action_partial(1)
        self._partial_cache[key] = out
        return out

    def theta_gradient(self, theta1, theta2, I1, I2) -> np.ndarray:
        """(d f/d theta1, d f/d theta2) stacked along a leading axis."""
        return np.stack(
            [
                np.asarray(self.partial(d_theta1=1)(theta1, theta2, I1, I2)),
                np.asarray(self.partial(d_theta2=1)(theta1, theta2, I1, I2)),
            ]
        )

    def action_gradient(self, theta1, theta2, I1, I2) -> np.ndarray:
        """(d f/d I1, d f/d I2) stacked along a leading axis."""
        return np.stack(
            [
                np.asarray(self.partial(d_I1=1)(theta1, theta2, I1, I2)),
                np.asarray(self.partial(d_I2=1)(theta1, theta2, I1, I2)),
            ]
        )

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "FourierPerturbation") -> "FourierPerturbation":
        merged = dict(self._modes)
        for k, (a, b) in other._modes.items():
            oa, ob = merged.get(k, (PolyField.zero(), PolyField.zero()))
            merged[k] = (oa + a, ob + b)
        return FourierPerturbation(merged)

    def __sub__(self, other: "FourierPerturbation") -> "FourierPerturbation":
        return self + (-1.0) * other

    def __mul__(self, scalar):
        scalar = float(scalar)
        return FourierPerturbation(
            {k: (scalar * a, scalar * b) for k, (a, b) in self._modes.items()}
        )

    __rmul__ = __mul__

    def __repr__(self):
        keys = ", ".join(str(k) for k in self.mode_keys)
        return f"FourierPerturbation(modes=[{keys}])"
