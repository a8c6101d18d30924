"""Finite real Fourier series on T^2 with polynomial action coefficients.

A perturbation is stored as

    f(theta, I) = sum_k  a_k(I) cos(2 pi k.theta) + b_k(I) sin(2 pi k.theta)

over a finite set of integer wave vectors k, with a_k and b_k exact
:class:`~resodrift.poly.PolyField` coefficients.  Keys are canonicalized so the
series is real by construction: each stored k has its first nonzero component
positive, and the reflected term is folded in through the parity of cos/sin.

A :class:`FourierPerturbation` holds the data and the algebra.  Every series
is evaluated through one packed :class:`ModeTable`: an integer mode matrix
and the cos/sin coefficients of every mode as rows over a basis of rational
monomials I1^a I2^b prod_j d_j(I)^(-m_j).  A FourierPerturbation (and a
generator solved on one) has no divisors d_j, and its basis is the plain
power table of the actions; a rational series
(:class:`~resodrift.rational.RationalSeries`) brings the divisors of its
terms.  The table also gives every first partial in closed form (angle
derivatives rotate the cos/sin pair and scale by 2 pi k, action derivatives
are second coefficient matrices over the same basis), which is what vector
fields, generator flows, norm estimates and the genericity scan read.
"""

from __future__ import annotations

import math

import numpy as np

from .blas import serial_blas
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


def monomial_partials(e, divisors, i: int):
    """d/dI_(i+1) of rational monomials as terms: (source rows, exponent rows, factors).

    e is an (n, 2 + J) integer array of rows (a, b, m_1, ..., m_J), each the
    monomial I1^a I2^b prod_j d_j(I)^(-m_j) over the J PolyField divisors.
    Row s's derivative sums factor times monomial over the terms of source
    s: the power rule a I^(a - e_i), then per divisor the quotient rule
    -m_j (dd_j/dI_i) d_j^-(m_j + 1), a term per monomial of dd_j/dI_i.
    """
    live = np.flatnonzero(e[:, i] > 0)
    rows = e[live].copy()
    rows[:, i] -= 1
    src, out, factor = [live], [rows], [e[live, i]]
    for j, d in enumerate(divisors):
        live = np.flatnonzero(e[:, 2 + j] > 0)
        for a, b, v in d.partial(*((1, 0) if i == 0 else (0, 1))).to_terms():
            rows = e[live].copy()
            rows[:, :2] += (a, b)
            rows[:, 2 + j] += 1
            src.append(live)
            out.append(rows)
            factor.append(-v * e[live, 2 + j])
    return np.concatenate(src), np.concatenate(out), np.concatenate(factor)


def _powers(x, top: int) -> np.ndarray:
    """x**0, ..., x**top at 1-D points by repeated multiplication, shape (top + 1, points)."""
    powers = np.empty((top + 1, len(x)))
    powers[0] = 1.0
    for p in range(1, top + 1):
        np.multiply(powers[p - 1], x, out=powers[p])
    return powers


def _poly_terms(polys, J: int):
    """(row r, exponent rows, coefficient) of every nonzero entry of polys[r], a PolyField or number."""
    t = np.array([(r, i, j, c) for r, p in enumerate(polys) for i, j, c in PolyField._coerce(p).to_terms()])
    t = t.reshape(-1, 4)
    e = np.zeros((len(t), 2 + J), dtype=np.int64)
    e[:, :2] = t[:, 1:3]
    return t[:, 0].astype(np.int64), e, t[:, 3]


# The array branch works on blocks of points.  A block's temporaries are
# tables of (polynomial rows or modes) x points; a block holds about this many
# values in its widest pair of them (8 MB), so memory stays bounded whatever
# the number of points, modes or degrees.
BLOCK_VALUES = 1 << 20

# real scalars take the single-point branch; anything else the array branch
_SCALAR = (float, int, np.floating, np.integer)

# terms per statement of a generated row sum
_SUM_TERMS = 64


class ModeTable:
    """Packed series sum_k a_k(I) cos(2 pi k.theta) + b_k(I) sin(2 pi k.theta).

    K is the (m, 2) integer mode matrix.  Term n of the table adds v[n]
    times the rational monomial e[n] (a row (a, b, m_1, ...) for
    I1^a I2^b prod_j d_j(I)^(-m_j) over the divisors) to polynomial row
    poly[n]: the cos coefficient of mode r at r, its sin coefficient at
    m + r.  The rows are one matrix over a basis of such monomials, and
    their action derivatives (:func:`monomial_partials`) two more over the
    same basis, which holds the monomials of the terms and of their
    derivatives.  The divisors themselves are one coefficient matrix over
    the power table of the actions, so no point reaches PolyField's
    evaluator.  Without divisors, as for a FourierPerturbation, the basis
    is the whole power table I1**i * I2**j (i < n1, j < n2) at index
    i * n2 + j.  An angle derivative rotates the cos/sin pair and scales by
    2 pi k.  Values and first partials are all read off the basis.

    Given omega, a pair of polynomials (the frequency map), the table is
    divided: omega only enters the divisors, every mode is divided by
    D_k = 2 pi k.omega(I), and the action derivatives follow the quotient
    rule with dD_k/dI = 2 pi k.(d omega/dI).  Without omega the series is
    evaluated as it stands; a Hamiltonian h + eps f is such a series, with
    h on the mode (0, 0), so its rows are H and its four first partials.

    Evaluation has two branches, chosen by the shape of the input.  A single
    point of an undivided table without divisors is read as four float64
    values, whatever their real type, and evaluated in plain Python floats
    by one straight-line function that the table generates on first use
    (:meth:`point_function`), which an orbit RHS call on generic3 runs in
    1.8-3.5 us.  Everything else is evaluated in blocks of block_points
    points, on one BLAS thread (:func:`~resodrift.blas.serial_blas`); the
    single-point branch never enters that guard.
    """

    __slots__ = ("K", "divided", "block_points", "_Kf", "_k1", "_k2", "_divisors", "_divisor_W",
                 "_divisor_tops", "_basis", "_tops", "_width", "_e1", "_e2", "_W", "_n_poly", "_n1", "_n2", "_w",
                 "_point", "point_source")

    def __init__(self, K, poly, e, v, divisors=(), omega=None):
        self.K = np.asarray(K, dtype=int).reshape(-1, 2)
        m, J = self.K.shape[0], len(divisors)
        self.divided, self._divisors = omega is not None, tuple(divisors)
        self._n_poly = n_poly = 2 * m + len(omega or ())
        # omega's terms are the polynomial rows 2m and 2m + 1; exact zeros are dropped
        o_poly, o_e, o_v = _poly_terms(omega or (), J)
        poly = np.concatenate([np.asarray(poly, dtype=np.int64).reshape(-1), 2 * m + o_poly])
        e = np.concatenate([np.asarray(e, dtype=np.int64).reshape(-1, 2 + J), o_e])
        v = np.concatenate([np.asarray(v, dtype=float).reshape(-1), o_v])
        poly, e, v = poly[v != 0.0], e[v != 0.0], v[v != 0.0]
        # the terms of the value block 0, then of the d/dI1 and d/dI2 blocks 1 and 2
        terms = [(poly, e, v)]
        for i in (0, 1):
            src, d_e, factor = monomial_partials(e, self._divisors, i)
            terms.append((poly[src], d_e, v[src] * factor))
        block = np.repeat([0, 1, 2], [len(t[2]) for t in terms])
        rows, exps, coef = (np.concatenate(x) for x in zip(*terms))
        n1, n2 = (int(np.max(exps[:, i], initial=0)) + 1 for i in (0, 1))
        if J:
            # divisor j is row j of a matrix over the powers I1**i * I2**k at index i * (k_top + 1) + k
            r, d_e, d_v = _poly_terms(self._divisors, 0)
            self._divisor_tops = t1, t2 = tuple(int(np.max(d_e[:, i], initial=0)) for i in (0, 1))
            self._divisor_W = np.zeros((J, (t1 + 1) * (t2 + 1)))
            np.add.at(self._divisor_W, (r, d_e[:, 0] * (t2 + 1) + d_e[:, 1]), d_v)
            self._basis, index = np.unique(exps, axis=0, return_inverse=True)
            self._tops = np.max(self._basis, axis=0, initial=0).tolist()
            # a block's tables of powers, the basis and one gathered factor
            self._width = sum(self._tops) + len(self._tops) + 2 * len(self._basis)
        else:
            index = exps[:, 0] * n2 + exps[:, 1]
            self._width = n1 * n2
        W = np.zeros((3, n_poly, len(self._basis) if J else n1 * n2))
        np.add.at(W, (block, rows, index.reshape(-1)), coef)
        # one row per (block, polynomial); blocks are value, d/dI1, d/dI2
        self._W = W.reshape(3 * n_poly, W.shape[2])
        # the basis and the polynomial rows are the widest temporaries
        self.block_points = max(1, BLOCK_VALUES // (self._width + 3 * n_poly))
        self._Kf = self.K.astype(float)
        self._k1, self._k2 = self._Kf[:, 0].copy(), self._Kf[:, 1].copy()
        self._e1, self._e2 = np.arange(n1), np.arange(n2)
        # the single-point branch works in Python floats and ints
        self._n1, self._n2 = n1, n2
        self._w = (TWO_PI * self._Kf).tolist()
        self._point = self.point_source = None

    @classmethod
    def of_modes(cls, modes: dict, omega=None) -> "ModeTable":
        """The table of {k: (cos coefficient, sin coefficient)}, polynomials or numbers, keys sorted.

        The keys are taken as they are, so a divided table's numerators keep their own signs.
        """
        keys = sorted(modes)
        return cls(keys, *_poly_terms([modes[k][0] for k in keys] + [modes[k][1] for k in keys], 0), omega=omega)

    # -- the two branches ------------------------------------------------------------

    def _compile_terms(self):
        """Per row, the nonzero (power index, trig index, coefficient) terms.

        Every row of an undivided table is bilinear in the powers
        I1**i * I2**j (power index i * n2 + j) and the trig values: the cos of
        mode k at trig index k and its sin at m + k.
        """
        m = self.K.shape[0]
        value, d_i1, d_i2 = self._W.reshape(3, self._n_poly, self._n1 * self._n2).tolist()
        rows = [[] for _ in range(5)]

        def add(row, trig, coeffs, scale=1.0):
            rows[row].extend((p, trig, scale * c) for p, c in enumerate(coeffs) if scale * c != 0.0)

        for k, w in enumerate(self._w):
            a, b = value[k], value[m + k]
            add(0, k, a)
            add(0, m + k, b)
            for j in (0, 1):
                # d/dtheta_j [a cos + b sin] = 2 pi k_j (b cos - a sin)
                add(1 + j, k, b, w[j])
                add(1 + j, m + k, a, -w[j])
            for j, d in enumerate((d_i1, d_i2)):
                add(3 + j, k, d[k])
                add(3 + j, m + k, d[m + k])
        return rows

    def point_function(self):
        """The single-point evaluator (t1, t2, x1, x2) -> list of the five rows.

        Built on first use from :meth:`_compile_terms`: one straight-line
        function computes the phases w1 * t1 + w2 * t2, one math.cos and one
        math.sin per mode, the action powers by repeated multiplication, and
        each row as the left-to-right sum (0.0 + c * P * T) + ... of its
        terms in their order, constants written with repr.  A factor 1.0 of
        the powers is left out, which changes no bit.  The source is kept as
        point_source.
        """
        if self._point is None:
            m, n1, n2 = self.K.shape[0], self._n1, self._n2
            lines = ["def point(t1, t2, x1, x2):"]
            for k, (w1, w2) in enumerate(self._w):
                lines += [f"    q{k} = {w1!r} * t1 + {w2!r} * t2", f"    c{k} = cos(q{k})", f"    s{k} = sin(q{k})"]
            for x, n in (("x1", n1), ("x2", n2)):
                lines += [f"    {x}_{i} = {x}_{i - 1} * {x}" if i > 1 else f"    {x}_1 = {x}" for i in range(1, n)]
            rows = self._compile_terms()
            used = {p for row in rows for p, _, _ in row}
            # power i * n2 + j is I1**i * I2**j
            power = []
            for i in range(n1):
                for j in range(n2):
                    if i and j and i * n2 + j in used:
                        lines.append(f"    p{i}_{j} = x1_{i} * x2_{j}")
                    power.append(f"p{i}_{j} * " if i and j else f"x1_{i} * " if i else f"x2_{j} * " if j else "")
            trig = [f"c{k}" for k in range(m)] + [f"s{k}" for k in range(m)]
            for r, row in enumerate(rows):
                terms = [f"{c!r} * {power[p]}{trig[q]}" for p, q, c in row]
                # chunks of _SUM_TERMS keep each expression shallow for the compiler
                lines.append(f"    r{r} = 0.0")
                for start in range(0, len(terms), _SUM_TERMS):
                    lines.append(f"    r{r} = r{r} + " + " + ".join(terms[start : start + _SUM_TERMS]))
            lines.append("    return [r0, r1, r2, r3, r4]")
            self.point_source = "\n".join(lines) + "\n"
            namespace = {"cos": math.cos, "sin": math.sin, "inf": math.inf, "nan": math.nan}
            exec(compile(self.point_source, "<ModeTable.point_source>", "exec"), namespace)
            self._point = namespace["point"]
        return self._point

    # The array branch keeps modes first and points last, so every per-mode
    # quantity of a block is one contiguous (m, points) array.

    def _trig(self, t1, t2):
        phase = TWO_PI * (self._k1[:, None] * t1 + self._k2[:, None] * t2)
        return np.cos(phase), np.sin(phase)

    def _rows(self, x1, x2, blocks: int):
        """Polynomial rows at 1-D actions: the value block, then the derivative blocks."""
        if not self._divisors:
            basis = ((x1 ** self._e1[:, None])[:, None, :] * (x2 ** self._e2[:, None])[None, :, :]).reshape(-1, len(x1))
            return self._W[: blocks * self._n_poly] @ basis
        # column c of the exponent rows indexes the powers of the c-th base:
        # I1, I2 and each 1 / d_j, the divisors read off their power table
        t1, t2 = self._divisor_tops
        inverse = list(1.0 / (self._divisor_W @ (_powers(x1, t1)[:, None] * _powers(x2, t2)).reshape(-1, len(x1))))
        basis = None
        for c, (x, top) in enumerate(zip([x1, x2] + inverse, self._tops)):
            factor = _powers(x, top)[self._basis[:, c]]
            basis = factor if basis is None else np.multiply(basis, factor, out=basis)
        return self._W[: blocks * self._n_poly] @ basis

    def _k_dot(self, om):
        """2 pi k.omega for every mode from rows (..., 2, points) of omega or its derivatives."""
        return TWO_PI * (self._k1[:, None] * om[..., 0:1, :] + self._k2[:, None] * om[..., 1:2, :])

    def _block(self, t1, t2, x1, x2, grad: bool):
        """Rows at a block of points, shape (rows, points); the value alone if not grad."""
        m, n = self.K.shape[0], self._n_poly
        c, s = self._trig(t1, t2)
        rows = self._rows(x1, x2, 3 if grad else 1)
        a, b, om = rows[:m], rows[m : 2 * m], rows[2 * m : n]
        num = a * c + b * s
        if self.divided:
            inv = 1.0 / self._k_dot(om)
            num = num * inv
        value = num.sum(axis=0)
        if not grad:
            return value
        swing = b * c - a * s
        # G[j] are the polynomial rows differentiated in I_(j+1)
        G = rows[n:].reshape(2, n, len(x1))
        dnum = G[:, :m] * c + G[:, m : 2 * m] * s
        if self.divided:
            swing = swing * inv
            dnum = (dnum - num * self._k_dot(G[:, 2 * m :])) * inv
        d_theta = TWO_PI * (self._Kf.T[:, :, None] * swing).sum(axis=1)
        return np.concatenate([value[None], d_theta, dnum.sum(axis=1)])

    def _run(self, args, grad: bool):
        t1, t2, x1, x2 = args
        if not (self.divided or self._divisors) and isinstance(t1, _SCALAR) and isinstance(t2, _SCALAR) \
                and isinstance(x1, _SCALAR) and isinstance(x2, _SCALAR):
            # one state, as an orbit RHS call passes it, in float64 whatever its type
            rows = self.point_function()(float(t1), float(t2), float(x1), float(x2))
            return rows if grad else rows[0]
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
        shape = arrays[0].shape
        flat = [v.reshape(-1) for v in arrays]
        n = flat[0].size
        out = np.empty((5, n) if grad else n)
        with serial_blas():
            for start in range(0, n, self.block_points):
                block = slice(start, start + self.block_points)
                out[..., block] = self._block(*(v[block] for v in flat), grad)
        return out.reshape(out.shape[:-1] + shape)

    # -- public evaluation ----------------------------------------------------------

    def evaluate(self, theta1, theta2, I1, I2) -> np.ndarray:
        """Rows (value, d/dtheta1, d/dtheta2, d/dI1, d/dI2).

        The rows are stacked along a leading axis over the broadcast shape of
        the inputs; a single point of an undivided table without divisors
        gives a list of floats.
        """
        return self._run((theta1, theta2, I1, I2), True)

    def values(self, theta1, theta2, I1, I2):
        """The series alone; a float for a single point."""
        out = self._run((theta1, theta2, I1, I2), False)
        return float(out) if np.ndim(out) == 0 else out

    @serial_blas()
    def coefficients(self, I1, I2):
        """(a, b): the cos and sin coefficients (a divided table's numerators) at 1-D actions, each (m, points)."""
        m = self.K.shape[0]
        rows = self._rows(np.asarray(I1, dtype=float), np.asarray(I2, dtype=float), 1)
        return rows[:m], rows[m : 2 * m]

    @serial_blas()
    def divisors(self, I1, I2) -> np.ndarray:
        """2 pi k.omega(I) for every mode, stacked along a leading axis of length m."""
        x1, x2 = np.broadcast_arrays(np.asarray(I1, dtype=float), np.asarray(I2, dtype=float))
        m = self.K.shape[0]
        om = self._rows(x1.reshape(-1), x2.reshape(-1), 1)[2 * m : 2 * m + 2]
        return self._k_dot(om).reshape((m,) + x1.shape)

    # -- tensor grids ---------------------------------------------------------------
    #
    # On (action points) x (angle points) every row is bilinear: the weights of
    # the cos and sin of each mode depend on the actions alone, so each row is
    # one (actions x 2m) @ (2m x angles) product.

    def _weights(self, x1, x2, grad: bool):
        """Weights of [cos, sin] of every mode at 1-D actions, shape (rows, 2m, actions)."""
        m, n = self.K.shape[0], self._n_poly
        # the value, d/dI1 and d/dI2 blocks of the polynomial rows; ab[i] is [a, b]
        blocks = 3 if grad else 1
        rows = self._rows(x1, x2, blocks).reshape(blocks, n, len(x1))
        ab = rows[:, : 2 * m]
        if self.divided:
            # quotient rule: (p / D)' = (p' - (p / D) D') / D
            inv = np.tile(1.0 / self._k_dot(rows[0, 2 * m :]), (2, 1))
            ab[0] *= inv
            ab[1:] = (ab[1:] - ab[0] * np.tile(self._k_dot(rows[1:, 2 * m :]), (1, 2, 1))) * inv
        if not grad:
            return ab
        # d/dtheta_j [a cos + b sin] = 2 pi k_j (b cos - a sin)
        swing = np.concatenate([ab[0, m:], -ab[0, :m]])
        d_theta = TWO_PI * np.tile(self._Kf.T, 2)[:, :, None] * swing
        return np.concatenate([ab[:1], d_theta, ab[1:]])

    def _grid(self, theta1, theta2, I1, I2):
        """Flat angle and action points, the angle table (2m, angles) and the grid shape."""
        t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float))
        x1, x2 = np.broadcast_arrays(np.asarray(I1, dtype=float), np.asarray(I2, dtype=float))
        trig = np.concatenate(self._trig(t1.reshape(-1), t2.reshape(-1)))
        return trig, x1.reshape(-1), x2.reshape(-1), x1.shape + t1.shape

    @serial_blas()
    def outer(self, theta1, theta2, I1, I2, grad: bool = False) -> np.ndarray:
        """The series on every pair of an action point and an angle point.

        theta1 and theta2 broadcast to the angle shape, I1 and I2 to the action
        shape.  The result has the action shape followed by the angle shape;
        with grad it is stacked along a leading axis as (value, d/dtheta1,
        d/dtheta2, d/dI1, d/dI2), and divided tables follow the quotient
        rule.  The whole grid is one product, so the result holds rows x
        actions x angles values: bound large grids with :meth:`outer_blocks`.
        """
        trig, x1, x2, shape = self._grid(theta1, theta2, I1, I2)
        out = np.matmul(self._weights(x1, x2, grad).transpose(0, 2, 1), trig)
        return out.reshape(out.shape[:1] + shape if grad else shape)

    def outer_blocks(self, theta1, theta2, I1, I2, grad: bool = False):
        """:meth:`outer` streamed over slices of the flattened action points.

        Yields the rows on consecutive slices of the flat action points, each
        of shape (rows, slice length, angle points), with rows = 5 with grad
        and 1 without.  The angle table is computed once.  The slices
        are sized so that the angle table and a slice's temporaries (its
        rows, their weights, its power table and polynomial rows) hold about
        BLOCK_VALUES values.  Every block is a view of one buffer that the
        next block overwrites, so a consumer may reduce it in place but must
        not keep it.
        """
        trig, x1, x2, _ = self._grid(theta1, theta2, I1, I2)
        rows, n_angle = 5 if grad else 1, trig.shape[1]
        per_action = rows * (n_angle + trig.shape[0]) + self._width + 3 * self._n_poly
        step = max(1, (BLOCK_VALUES - trig.size) // per_action)
        buffer = np.empty(rows * min(step, len(x1)) * n_angle)
        for start in range(0, len(x1), step):
            a1, a2 = x1[start : start + step], x2[start : start + step]
            out = buffer[: rows * len(a1) * n_angle].reshape(rows, -1, n_angle)
            with serial_blas():
                np.matmul(self._weights(a1, a2, grad).transpose(0, 2, 1), trig, out=out)
            yield out


class FourierPerturbation:
    """Finite trigonometric polynomial on T^2 with PolyField coefficients.

    The series holds its modes and their algebra; values come from __call__
    and every first partial from the rows of :meth:`table`.
    """

    __slots__ = ("_modes", "_table")

    def __init__(self, modes: dict | None = None):
        self._modes: dict[tuple[int, int], tuple[PolyField, PolyField]] = {}
        self._table: ModeTable | None = None
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
        self._table = None

    def _prune(self):
        dead = [k for k, (a, b) in self._modes.items() if a.is_zero and b.is_zero]
        for k in dead:
            del self._modes[k]
        self._table = None

    # -- queries ----------------------------------------------------------------

    @property
    def modes(self) -> dict:
        return dict(self._modes)

    @property
    def mode_keys(self):
        return sorted(self._modes.keys())

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

    def table(self) -> ModeTable:
        """The packed table of the series, built on first use and cached."""
        if self._table is None:
            self._table = ModeTable.of_modes(self._modes)
        return self._table

    def __call__(self, theta1, theta2, I1, I2):
        return self.table().values(theta1, theta2, I1, I2)

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
