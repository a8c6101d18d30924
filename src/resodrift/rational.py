"""Fourier series on T^2 with coefficients rational in the actions.

A term is

    c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j)

with complex c, and the divisors d_j polynomials in I shared by the whole
series: the values k.omega(I) of a generator's primitive modes.  Such series
are closed under what a Lie series needs: angle derivatives (a factor
2 pi i k), action derivatives (the power rule on the monomial and the
quotient rule through the polynomial dd_j/dI), products and the Poisson
bracket {G, chi}.  A real series holds every term with its conjugate at -k.
A series is evaluated through its ModeTable (:meth:`RationalSeries.table`),
which folds each pair of conjugate terms into the cos and sin coefficient
rows of the canonical mode, over a basis of the series' rational monomials.

The exponents of a term sit in one integer row (k1, k2, a, b, m_1, ...), and
like terms merge by a mixed-radix key of that row.  The key of a product term
is the sum of its factors' keys, so a product never builds its rows of
exponents before the merge.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import TWO_PI, FourierPerturbation, ModeTable, monomial_partials
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
            src, rows, factor = monomial_partials(self.e[:, 2:], self.divisors, i)
            parts.append(np.concatenate([self.e[src, :2], rows], axis=1))
            c = np.zeros((len(src), 2), dtype=complex)
            c[:, i] = self.c[src] * factor
            coefs.append(c)
        return _merged(np.concatenate(parts), np.concatenate(coefs))

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

    # -- modes and evaluation ---------------------------------------------------------

    def _modes(self):
        """(per term the sign s that makes s k canonical, 0 on the mean; the canonical modes; each term's mode)."""
        k = self.e[:, :2]
        sign = np.where(k[:, 0] != 0, np.sign(k[:, 0]), np.sign(k[:, 1]))
        modes, index = np.unique(k * sign[:, None], axis=0, return_inverse=True)
        return sign, modes.reshape(-1, 2), index.reshape(-1)

    def filter(self, predicate) -> "RationalSeries":
        """The terms whose canonical mode (a tuple (k1, k2)) satisfies predicate."""
        _, modes, index = self._modes()
        keep = np.array([bool(predicate(tuple(k))) for k in modes.tolist()], dtype=bool)[index]
        return self._of_merged(self.e[keep], self.c[keep], self.divisors)

    def quarter_turn(self) -> "RationalSeries":
        """Every mode's (cos, sin) pair (a, b) turned to (-b, a): -i on k, +i on -k; the mean drops out."""
        sign = self._modes()[0]
        return RationalSeries(self.e, self.c * (-1j * sign), self.divisors)

    def table(self, omega=None) -> ModeTable:
        """The series' ModeTable over its divisors, modes in (k1, k2) order; omega divides it.

        C e^(ix) + C' e^(-ix) = Re(C + C') cos x - Im(C - C') sin x, so a
        term adds Re(c) to its canonical mode's cos row and -s Im(c) to its
        sin row, s its sign (0 on the mean, whose sin is void).
        """
        sign, modes, index = self._modes()
        return ModeTable(modes, np.concatenate([index, len(modes) + index]), np.tile(self.e[:, 2:], (2, 1)),
                         np.concatenate([self.c.real, -sign * self.c.imag]), self.divisors, omega)
