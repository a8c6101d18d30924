"""Exact bivariate polynomials in the action variables.

Frequency maps and Fourier coefficient functions are all polynomial in the
actions for the systems treated here, so derivatives are computed by
manipulating coefficient tables instead of differencing.  That keeps every
downstream identity (gradients, small divisors, homological residuals) exact
up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero rows/columns; keep at least a 1x1 table."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    rows = np.nonzero(np.any(c != 0.0, axis=1))[0]
    cols = np.nonzero(np.any(c != 0.0, axis=0))[0]
    if rows.size == 0 or cols.size == 0:
        return np.zeros((1, 1))
    return np.array(c[: rows[-1] + 1, : cols[-1] + 1])


class PolyField:
    """Polynomial in (I1, I2); entry coeffs[i, j] multiplies I1**i * I2**j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyField":
        return cls(np.zeros((1, 1)))

    @classmethod
    def constant(cls, value: float) -> "PolyField":
        return cls(np.array([[float(value)]]))

    @classmethod
    def from_terms(cls, terms) -> "PolyField":
        """Build from an iterable of (deg_I1, deg_I2, coefficient)."""
        terms = list(terms)
        if not terms:
            return cls.zero()
        d1 = max(int(t[0]) for t in terms)
        d2 = max(int(t[1]) for t in terms)
        c = np.zeros((d1 + 1, d2 + 1))
        for i, j, v in terms:
            c[int(i), int(j)] += float(v)
        return cls(c)

    def to_terms(self):
        """Inverse of from_terms; only nonzero entries, sorted by degree."""
        out = []
        for i in range(self.coeffs.shape[0]):
            for j in range(self.coeffs.shape[1]):
                v = self.coeffs[i, j]
                if v != 0.0:
                    out.append((i, j, float(v)))
        return out

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, I1, I2):
        """Value at I1 and I2 broadcast together."""
        I1, I2 = np.broadcast_arrays(np.asarray(I1, dtype=float), np.asarray(I2, dtype=float))
        return npoly.polyval2d(I1, I2, self.coeffs)

    def partial(self, d1: int = 0, d2: int = 0) -> "PolyField":
        """Exact partial derivative d^(d1+d2) / dI1^d1 dI2^d2."""
        c = self.coeffs
        for _ in range(d1):
            c = npoly.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, 1))
        for _ in range(d2):
            c = npoly.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
        return PolyField(c)

    def compose_affine(self, A, b) -> "PolyField":
        """Exact substitution I = A @ J + b, returned as a polynomial in J.

        A is a 2x2 matrix and b a 2-vector.  Used for unimodular changes of
        action variables and for translations of the resonance line; both stay
        within the polynomial class, so the composition is closed form.
        """
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        p1 = PolyField.from_terms([(0, 0, b[0]), (1, 0, A[0, 0]), (0, 1, A[0, 1])])
        p2 = PolyField.from_terms([(0, 0, b[1]), (1, 0, A[1, 0]), (0, 1, A[1, 1])])
        result = PolyField.zero()
        pow1 = PolyField.constant(1.0)
        for i in range(self.coeffs.shape[0]):
            row = PolyField.zero()
            pow2 = PolyField.constant(1.0)
            for j in range(self.coeffs.shape[1]):
                v = self.coeffs[i, j]
                if v != 0.0:
                    row = row + v * pow2
                pow2 = pow2 * p2
            result = result + pow1 * row
            pow1 = pow1 * p1
        return result

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n1 = max(self.coeffs.shape[0], other.coeffs.shape[0])
        n2 = max(self.coeffs.shape[1], other.coeffs.shape[1])
        c = np.zeros((n1, n2))
        c[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        c[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return PolyField(c)

    def __sub__(self, other):
        return self + (-1.0) * self._coerce(other)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, PolyField):
            a, b = self.coeffs, other.coeffs
            c = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0.0:
                        c[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return PolyField(c)
        return PolyField(self.coeffs * float(other))

    __rmul__ = __mul__
    __radd__ = __add__

    @staticmethod
    def _coerce(value) -> "PolyField":
        if isinstance(value, PolyField):
            return value
        return PolyField.constant(float(value))

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        if self.is_zero:
            return 0
        return (self.coeffs.shape[0] - 1) + (self.coeffs.shape[1] - 1)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    @property
    def is_constant(self) -> bool:
        return self.coeffs.shape == (1, 1)

    def __eq__(self, other):
        if not isinstance(other, PolyField):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0: the two compare equal, so must hash alike
        return hash((self.coeffs + 0.0).tobytes())

    def __repr__(self):
        return f"PolyField({self.to_terms()!r})"
