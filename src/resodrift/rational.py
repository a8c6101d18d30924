"""Fourier series on T^2 with coefficients rational in the actions.

A term is

    c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j)

with complex c, and the divisors d_j polynomials in I shared by the whole
series: the values k.omega(I) of a generator's primitive modes.  Such series
are closed under what a Lie series needs: angle derivatives (a factor
2 pi i k), action derivatives (the power rule on the monomial and the
quotient rule through the polynomial dd_j/dI), products and the Poisson
bracket {G, chi}.  A real series holds every term with its conjugate at -k.

The exponents of a term sit in one integer row (k1, k2, a, b, m_1, ...), and
like terms merge by a mixed-radix key of that row.  The key of a product term
is the sum of its factors' keys, so a product never builds its rows of
exponents before the merge.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import TWO_PI, FourierPerturbation
from .poly import PolyField


def _radix(lo, hi, top):
    """Mixed-radix weights keying rows in [lo, hi] one to one, most significant column first.

    None when a key of rows with |e| <= top per column could overflow int64.
    """
    weights, w = [], 1
    for span in (hi - lo + 1).tolist()[::-1]:
        weights.append(w)
        w *= span
    weights = weights[::-1]
    reach = sum(int(t) * v for t, v in zip(top.tolist(), weights))
    return np.array(weights, dtype=np.int64) if max(w, reach) < 2**62 else None


def _keys(e):
    """One int64 key per exponent row, equal exactly for equal rows and ordered as the rows."""
    lo, hi = e.min(axis=0), e.max(axis=0)
    weights = _radix(lo, hi, np.maximum(-lo, hi))
    if weights is None:
        return np.unique(e, axis=0, return_inverse=True)[1].reshape(-1)
    return e @ weights


def _merge_keys(keys, c):
    """(index of one row per key, sum of the coefficient rows c (n, ...) of each key), in key order.

    The sort is stable, so each key's rows are summed in their given order
    and the sums do not depend on the sorting kernel.
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))
    return order[starts], np.add.reduceat(c[order], starts, axis=0)


def _merged(e, c):
    """Like terms of the rows e (n, F) with coefficients c merged, exact zeros dropped."""
    if len(c) == 0:
        return e, c
    first, sums = _merge_keys(_keys(e), c)
    live = np.any(sums != 0.0, axis=tuple(range(1, sums.ndim)))
    return e[first][live], sums[live]


def _product_sum(pairs):
    """Merged sum of the term products of every pair (eA, eB, C).

    C is the (len(eA), len(eB)) coefficient matrix of the products: the term
    of rows i and j has exponents eA[i] + eB[j] and coefficient C[i, j].
    The key of a sum of rows is the sum of their keys, so the product's
    exponent rows are built only for the merged terms.
    """
    pairs = [(a, b, C) for a, b, C in pairs if C.size]
    if not pairs:
        return None
    lo = np.min([a.min(axis=0) + b.min(axis=0) for a, b, _ in pairs], axis=0)
    hi = np.max([a.max(axis=0) + b.max(axis=0) for a, b, _ in pairs], axis=0)
    top = np.max([np.abs(a).max(axis=0) + np.abs(b).max(axis=0) for a, b, _ in pairs], axis=0)
    weights = _radix(lo, hi, top)
    c = np.concatenate([C.reshape(-1) for _, _, C in pairs])
    if weights is None:
        e = np.concatenate([(a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]) for a, b, _ in pairs])
        return _merged(e, c)
    keys = np.concatenate([((a @ weights)[:, None] + (b @ weights)[None, :]).reshape(-1) for a, b, _ in pairs])
    first, sums = _merge_keys(keys, c)
    live = sums != 0.0
    first, sums = first[live], sums[live]
    # the exponents of each merged term, from the pair and the rows it came from
    e = np.empty((len(first), pairs[0][0].shape[1]), dtype=np.int64)
    offset = 0
    for a, b, C in pairs:
        mine = (first >= offset) & (first < offset + C.size)
        i, j = np.divmod(first[mine] - offset, C.shape[1])
        e[mine] = a[i] + b[j]
        offset += C.size
    return e, sums


class RationalSeries:
    """sum of c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j) over its terms.

    e is the (n, 4 + len(divisors)) integer array of exponent rows
    (k1, k2, a, b, m_1, ...), c the complex coefficients and divisors the
    PolyField d_j.  Every operation returns a new series with like terms
    merged and exact zeros dropped.
    """

    __slots__ = ("e", "c", "divisors")

    def __init__(self, e, c, divisors):
        self.divisors = tuple(divisors)
        e = np.asarray(e, dtype=np.int64).reshape(-1, 4 + len(self.divisors))
        self.e, self.c = _merged(e, np.asarray(c, dtype=complex))

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_fourier(cls, f: FourierPerturbation, divisors) -> "RationalSeries":
        """f as a series over the given divisors, every term with divisor power 0.

        a cos x + b sin x = (a - ib)/2 e^(ix) + (a + ib)/2 e^(-ix), and the
        mean is a alone.
        """
        rows, coefs = [], []
        for k, (a, b) in f.modes.items():
            signs = ((1, 1.0),) if k == (0, 0) else ((1, 0.5), (-1, 0.5))
            for s, half in signs:
                for i, j, v in a.to_terms():
                    rows.append((s * k[0], s * k[1], i, j))
                    coefs.append(half * v)
                for i, j, v in b.to_terms():
                    rows.append((s * k[0], s * k[1], i, j))
                    coefs.append(-1j * s * half * v)
        e = np.zeros((len(rows), 4 + len(divisors)), dtype=np.int64)
        e[:, :4] = np.array(rows, dtype=np.int64).reshape(-1, 4)
        return cls(e, coefs, divisors)

    @classmethod
    def generator(cls, numerators: dict, omega) -> "RationalSeries":
        """chi = sum_k [nc_k cos + ns_k sin] / (2 pi k.omega) over the numerator pairs.

        Each canonical mode k = g k' with k' primitive divides by g d(k'),
        d(k') = k'.omega; modes along one k' share its divisor.
        """
        primitive = sorted({(k[0] // math.gcd(*k), k[1] // math.gcd(*k)) for k in numerators})
        divisors = [p[0] * omega[0] + p[1] * omega[1] for p in primitive]
        terms = []
        for k, (nc, ns) in numerators.items():
            g = math.gcd(*k)
            pair = FourierPerturbation.from_terms([(k, nc * (1.0 / (TWO_PI * g)), ns * (1.0 / (TWO_PI * g)))])
            part = cls.from_fourier(pair, divisors)
            part.e[:, 4 + primitive.index((k[0] // g, k[1] // g))] = 1
            terms.append(part)
        return cls.concatenate(terms, divisors)

    @classmethod
    def concatenate(cls, series, divisors=None) -> "RationalSeries":
        """The sum of several series over one divisor set."""
        series = list(series)
        divisors = series[0].divisors if divisors is None else divisors
        if any(s.divisors != tuple(divisors) for s in series):
            raise ValueError("series over different divisors cannot be added")
        width = 4 + len(divisors)
        return cls(np.concatenate([s.e for s in series] + [np.zeros((0, width), np.int64)]),
                   np.concatenate([s.c for s in series] + [np.zeros(0, complex)]), divisors)

    # -- algebra -------------------------------------------------------------------

    @classmethod
    def _of_merged(cls, e, c, divisors) -> "RationalSeries":
        """A series of terms that are merged already."""
        out = cls.__new__(cls)
        out.e, out.c, out.divisors = e, c, divisors
        return out

    def __len__(self):
        return len(self.c)

    def __mul__(self, scalar):
        return self._of_merged(self.e, self.c * scalar, self.divisors)

    def __add__(self, other):
        return RationalSeries.concatenate([self, other])

    def __sub__(self, other):
        return self + other * -1.0

    def _d_actions(self):
        """(exponent rows, (n, 2) coefficients) of the two action derivatives, as one union."""
        parts, coefs = [], []
        for i in (0, 1):
            # the monomial: d/dI_i I^p = p_i I^(p - e_i)
            live = self.e[:, 2 + i] > 0
            e = self.e[live].copy()
            e[:, 2 + i] -= 1
            parts.append(e)
            coefs.append((i, self.c[live] * self.e[live, 2 + i]))
            # each divisor: d/dI_i d^-m = -m (dd/dI_i) d^-(m+1), monomial by monomial
            for j, d in enumerate(self.divisors):
                live = self.e[:, 4 + j] > 0
                for a, b, v in d.partial(*((1, 0) if i == 0 else (0, 1))).to_terms():
                    e = self.e[live].copy()
                    e[:, 2:4] += (a, b)
                    e[:, 4 + j] += 1
                    parts.append(e)
                    coefs.append((i, -v * self.e[live, 4 + j] * self.c[live]))
        c = np.zeros((sum(len(v) for _, v in coefs), 2), dtype=complex)
        start = 0
        for i, v in coefs:
            c[start : start + len(v), i] = v
            start += len(v)
        return _merged(np.concatenate(parts + [self.e[:0]]), c)

    def bracket(self, chi: "RationalSeries") -> "RationalSeries":
        """{self, chi} = d_theta self . d_I chi - d_I self . d_theta chi, angles in turns."""
        if chi.divisors != self.divisors:
            raise ValueError("series over different divisors cannot be bracketed")
        e_chi_I, c_chi_I = chi._d_actions()
        e_I, c_I = self._d_actions()
        k, k_chi = self.e[:, :2, None], chi.e[None, :, :2]
        # elementwise, not through BLAS, so no kernel choice enters a sum
        out = _product_sum([
            (self.e, e_chi_I, (1j * TWO_PI * self.c)[:, None] * (k[:, 0] * c_chi_I[:, 0] + k[:, 1] * c_chi_I[:, 1])),
            (e_I, chi.e, -1j * TWO_PI * (c_I[:, :1] * k_chi[..., 0] + c_I[:, 1:] * k_chi[..., 1]) * chi.c[None, :]),
        ])
        if out is None:
            return self._of_merged(self.e[:0], self.c[:0], self.divisors)
        return self._of_merged(*out, self.divisors)

    # -- bounds and pruning -------------------------------------------------------------

    def bounds(self, window) -> np.ndarray:
        """Per term, |c| sup|I1|^a sup|I2|^b prod_j (min |d_j|)^-m_j on window.

        The sups are the window's corners; min |d_j| is taken on its 65 x 17
        grid, the grid on which generators guard their divisors.
        """
        top = np.array([max(abs(window.i1_min), abs(window.i1_max)), max(abs(window.i2_min), abs(window.i2_max))])
        I1, I2 = window.grid(65, 17)
        low = [float(np.min(np.abs(d(I1[:, None], I2[None, :])))) for d in self.divisors]
        scale = np.prod(top ** self.e[:, 2:4], axis=1)
        for j, m in enumerate(low):
            scale = scale / m ** self.e[:, 4 + j]
        return np.abs(self.c) * scale

    def bound(self, window) -> float:
        """Sum of the per-term bounds on window, a bound on the series there."""
        return float(np.sum(self.bounds(window)))

    def pruned(self, window, floor: float):
        """(the series without the terms whose bound is <= floor, the sum of their bounds)."""
        b = self.bounds(window)
        drop = b <= floor
        return self._of_merged(self.e[~drop], self.c[~drop], self.divisors), float(np.sum(b[drop]))

    # -- evaluation ----------------------------------------------------------------------

    def cos_sin(self, I1, I2):
        """(K, a, b): the canonical modes and their cos and sin coefficients at action points.

        K is the (M, 2) array of canonical modes (first nonzero component
        positive) in (k1, k2) order, and a, b are (M, N) tables at the N
        points of I1 and I2 (1-D, one length): the real series is
        sum_k a_k cos(2 pi k.theta) + b_k sin(2 pi k.theta).
        """
        x1, x2 = np.asarray(I1, dtype=float), np.asarray(I2, dtype=float)
        e = self.e
        factor = self.c[:, None] * x1 ** e[:, 2:3] * x2 ** e[:, 3:4]
        for j, d in enumerate(self.divisors):
            factor /= d(x1, x2)[None, :] ** e[:, 4 + j : 5 + j]
        # fold -k onto k: C e^(ix) + C' e^(-ix) has the real part
        # Re(C + C') cos x - Im(C - C') sin x; sign is -1 on -k and 0 on the
        # mean, whose sin coefficient is void
        sign = np.where(e[:, 0] != 0, np.sign(e[:, 0]), np.sign(e[:, 1]))
        K = e[:, :2] * sign[:, None]
        if not len(K):
            return K, np.zeros((0, len(x1))), np.zeros((0, len(x1)))
        first, ab = _merge_keys(_keys(K), np.concatenate([factor.real, -sign[:, None] * factor.imag], axis=1))
        return K[first], ab[:, : len(x1)], ab[:, len(x1) :]

    def __call__(self, theta1, theta2, I1, I2):
        """The real series at points, all four inputs 1-D of one length."""
        K, a, b = self.cos_sin(I1, I2)
        phase = TWO_PI * (K[:, :1] * np.asarray(theta1, dtype=float) + K[:, 1:] * np.asarray(theta2, dtype=float))
        return np.sum(a * np.cos(phase) + b * np.sin(phase), axis=0)
