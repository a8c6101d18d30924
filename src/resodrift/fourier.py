"""Real Fourier series on T^2 with coefficients polynomial, or rational, in the actions.

A :class:`FourierPerturbation` is a sum of terms
c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j), each held with its
conjugate at -k.  The divisors d_j are polynomials shared by the whole
series: none for a perturbation or a Hamiltonian, the values k.omega(I) of a
generator's primitive modes for a generator and the Lie series built on it.
Such series are closed under angle and action derivatives, products and the
Poisson bracket {G, chi}, which is all a Lie series needs.  The real view,
a_k(I) cos(2 pi k.theta) + b_k(I) sin(2 pi k.theta) over canonical wave
vectors k (first nonzero component positive), is read off the terms.

Every series is evaluated through one packed :class:`ModeTable`: an integer
mode matrix and the cos/sin coefficients of every mode as rows over a basis of
the rational monomials its terms use, each made by repeated multiplication.
The table also gives every first partial in closed form, which is what vector
fields, generator flows, norm estimates and the genericity scan read.
"""

from __future__ import annotations

import math

import numpy as np

from .blas import serial_blas
from .errors import FlowEscapeError
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


def _monomials(e, bases) -> np.ndarray:
    """prod_c bases[c] ** e[:, c] at 1-D points, shape (len(e), points), gathered from :func:`_powers`.

    A zero exponent gathers the factor 1.0, which changes no bit of a product.
    """
    out = None
    for c, (x, top) in enumerate(zip(bases, np.max(e, axis=0, initial=0).tolist())):
        factor = _powers(x, top)[e[:, c]]
        out = factor if out is None else np.multiply(out, factor, out=out)
    return out


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
    derivatives, in the order of their exponent rows.  The divisors
    themselves are one coefficient matrix over the monomials I1^a I2^b of
    their own terms, so no point reaches PolyField's evaluator.  Every
    monomial at points is gathered from the powers of I1, I2 and each
    1 / d_j (:func:`_monomials`), made by repeated multiplication as the
    single-point branch makes them.  An angle derivative rotates the
    cos/sin pair and scales by 2 pi k.  Values and first partials are all
    read off the basis.

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
    (:meth:`_point_function`); an orbit's field entry, rendered the same
    way (:meth:`_field_function`), runs in 0.56-0.93 us on generic3.  All
    else is evaluated in blocks of block_points points, on one BLAS thread
    (:func:`~resodrift.blas.serial_blas`), a guard the single point skips.
    """

    __slots__ = ("K", "divided", "block_points", "_Kf", "_k1", "_k2", "_divisors", "_divisor_W", "_basis",
                 "_divisor_basis", "_width", "_W", "_n_poly", "_w", "_point", "point_source", "_field", "field_source")

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
        self._basis, index = np.unique(exps, axis=0, return_inverse=True)
        # a block's tables of powers, the basis and one gathered factor
        self._width = int(np.sum(np.max(self._basis, axis=0, initial=0) + 1)) + 2 * len(self._basis)
        # divisor j is row j of a matrix over the monomials of the divisors' own exponent rows
        r, d_e, d_v = _poly_terms(self._divisors, 0)
        self._divisor_basis, d_index = np.unique(d_e, axis=0, return_inverse=True)
        self._divisor_W = np.zeros((J, len(self._divisor_basis)))
        np.add.at(self._divisor_W, (r, d_index.reshape(-1)), d_v)
        W = np.zeros((3, n_poly, len(self._basis)))
        np.add.at(W, (block, rows, index.reshape(-1)), coef)
        # one row per (block, polynomial); blocks are value, d/dI1, d/dI2
        self._W = W.reshape(3 * n_poly, W.shape[2])
        # the basis and the polynomial rows are the widest temporaries
        self.block_points = max(1, BLOCK_VALUES // (self._width + 3 * n_poly))
        self._Kf = self.K.astype(float)
        self._k1, self._k2 = self._Kf[:, 0].copy(), self._Kf[:, 1].copy()
        # the single-point branch works in Python floats
        self._w = (TWO_PI * self._Kf).tolist()
        self._point = self.point_source = self._field = self.field_source = None

    # -- the two branches ------------------------------------------------------------

    def _compile_terms(self):
        """Per row, the nonzero (basis index, trig index, coefficient) terms.

        Every row of an undivided table without divisors is bilinear in the
        basis monomials I1**a * I2**b and the trig values: the cos of mode k
        at trig index k and its sin at m + k.
        """
        m = self.K.shape[0]
        value, d_i1, d_i2 = self._W.reshape(3, self._n_poly, len(self._basis)).tolist()
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

    def _point_function(self):
        """The single-point evaluator (t1, t2, x1, x2) -> list of the five rows; see :meth:`_render`."""
        if self._point is None:
            self._point, self.point_source = self._render("point", "t1, t2, x1, x2", [("", r) for r in range(5)])
        return self._point

    def _field_function(self):
        """The field at one state, (t, t1, t2, x1, x2) -> [r3, r4, -r1, -r2], t unread; see :meth:`_render`."""
        if self._field is None:
            self._field, self.field_source = self._render("field", "_t, t1, t2, x1, x2",
                                                          [("", 3), ("", 4), ("-", 1), ("-", 2)])
        return self._field

    def _render(self, name, args, outputs):
        """The generated function name(args) of one point, returning the signed rows outputs, and its source.

        Rendered from :meth:`_compile_terms`: one straight-line function
        computes the phases w1 * t1 + w2 * t2, the math.cos and math.sin of
        them that the returned rows read, the action powers they read by
        repeated multiplication, and each returned row as the left-to-right
        sum (0.0 + c * P * T) + ... of its terms in their order, constants
        written with repr; a row returned with the sign "-" is negated, which
        is exact.  A factor 1.0 of the powers is left out, and so is the mean
        mode's cos, 1.0 at every finite angle, which changes no bit there;
        its sin is written 0.0.  A divided table or one over divisors has
        rows that are not bilinear in the powers and the trig values, and
        raises ValueError.
        """
        if self.divided or self._divisors:
            raise ValueError("the single-point evaluator covers undivided tables without divisors")
        lines, m = [f"def {name}({args}):"], len(self._w)
        live = self.K.any(axis=1).tolist()
        rows, wanted = self._compile_terms(), sorted({r for _, r in outputs})
        # the basis rows and the trig indices that the returned rows read
        used, read = ({term[i] for r in wanted for term in rows[r]} for i in (0, 1))
        for k, (w1, w2) in enumerate(self._w):
            if live[k]:
                lines += [f"    q{k} = {w1!r} * t1 + {w2!r} * t2"] + \
                    [f"    {f[0]}{k} = {f}(q{k})" for f, q in (("cos", k), ("sin", m + k)) if q in read]
        for x, n in zip(("x1", "x2"), (np.max(self._basis[sorted(used)], axis=0, initial=0) + 1).tolist()):
            lines += [f"    {x}_{i} = {x}_{i - 1} * {x}" if i > 1 else f"    {x}_1 = {x}" for i in range(1, n)]
        # basis row p is I1**i * I2**j
        power = []
        for p, (i, j) in enumerate(self._basis.tolist()):
            if i and j and p in used:
                lines.append(f"    p{i}_{j} = x1_{i} * x2_{j}")
            power.append([f"p{i}_{j}"] if i and j else [f"x1_{i}"] if i else [f"x2_{j}"] if j else [])
        # the mean mode's cos is 1.0 and its sin 0.0 at every finite angle
        trig = [[f"c{k}"] if on else [] for k, on in enumerate(live)] + \
            [[f"s{k}"] if on else ["0.0"] for k, on in enumerate(live)]
        for r in wanted:
            terms = [" * ".join([repr(c), *power[p], *trig[q]]) for p, q, c in rows[r]]
            # chunks of _SUM_TERMS keep each expression shallow for the compiler
            lines.append(f"    r{r} = 0.0")
            for start in range(0, len(terms), _SUM_TERMS):
                lines.append(f"    r{r} = r{r} + " + " + ".join(terms[start : start + _SUM_TERMS]))
        lines.append("    return [" + ", ".join(f"{sign}r{r}" for sign, r in outputs) + "]")
        source = "\n".join(lines) + "\n"
        namespace = {"cos": math.cos, "sin": math.sin, "inf": math.inf, "nan": math.nan}
        exec(compile(source, f"<ModeTable.{name}_source>", "exec"), namespace)
        return namespace[name], source

    # The array branch keeps modes first and points last, so every per-mode
    # quantity of a block is one contiguous (m, points) array.

    def _trig(self, t1, t2):
        phase = TWO_PI * (self._k1[:, None] * t1 + self._k2[:, None] * t2)
        return np.cos(phase), np.sin(phase)

    def _rows(self, x1, x2, blocks: int):
        """Polynomial rows at 1-D actions: the value block, then the derivative blocks."""
        # column c of the exponent rows is the power of the c-th base: I1, I2
        # and each 1 / d_j, the divisors read off the monomials of their rows
        inverse = []
        if self._divisors:
            inverse = list(1.0 / (self._divisor_W @ _monomials(self._divisor_basis, (x1, x2))))
        return self._W[: blocks * self._n_poly] @ _monomials(self._basis, [x1, x2] + inverse)

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
            rows = self._point_function()(float(t1), float(t2), float(x1), float(x2))
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
        rows, their weights, its monomial tables and polynomial rows) hold about
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


# A bracket forms the products of every term of one series with every term of
# the other's derivatives, about 100 to 250 bytes each before they merge, so
# one holding more than this many raises FlowEscapeError before it forms them.
SERIES_MAX_PRODUCTS = 1_000_000


# -- merging like terms ------------------------------------------------------------
#
# The exponents of a term sit in one integer row (k1, k2, a, b, m_1, ...), and
# like terms merge by a mixed-radix key of that row.  The key of a product term
# is the sum of its factors' keys, so a product never builds its rows of
# exponents before the merge.


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


def _aligned(series):
    """(the series over one divisor set, those without divisors taking zero columns; that set)."""
    divisors = max((s.divisors for s in series), key=len)
    out = []
    for s in series:
        if s.divisors != divisors:
            if s.divisors:
                raise ValueError("series over different divisors cannot be combined")
            e = np.zeros((len(s.c), 4 + len(divisors)), dtype=np.int64)
            e[:, :4] = s.e
            s = FourierPerturbation._of_merged(e, s.c, divisors)
        out.append(s)
    return out, divisors


class FourierPerturbation:
    """sum of c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j) over its terms.

    e is the (n, 4 + len(divisors)) integer array of exponent rows
    (k1, k2, a, b, m_1, ...), c the complex coefficients and divisors the
    PolyField d_j; a perturbation has none.  A real series holds every term
    with its conjugate at -k.  The rows are merged (like terms summed, exact
    zeros dropped) and sorted, and every operation returns a new series, so
    nothing changes e or c in place and :meth:`table` is built once and
    cached.  A series without divisors combines with any series by taking
    zero divisor columns.
    """

    __slots__ = ("e", "c", "divisors", "_table")

    def __init__(self, e, c, divisors=()):
        self.divisors = tuple(divisors)
        e = np.asarray(e, dtype=np.int64).reshape(-1, 4 + len(self.divisors))
        self.e, self.c = _merged(e, np.asarray(c, dtype=complex))
        self._table = None

    @classmethod
    def _of_merged(cls, e, c, divisors) -> "FourierPerturbation":
        """A series of terms that are merged already."""
        out = cls.__new__(cls)
        out.e, out.c, out.divisors, out._table = e, c, tuple(divisors), None
        return out

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_terms(cls, terms) -> "FourierPerturbation":
        """Build from an iterable of (k, cos coefficient, sin coefficient).

        Coefficients may be numbers or PolyFields and wave vectors any integer
        pairs: a cos x + b sin x = (a - ib)/2 e^(ix) + (a + ib)/2 e^(-ix), so
        on the mean the halves of a add up to a and those of b cancel.
        """
        rows, coefs = [], []
        for k, a, b in terms:
            k1, k2 = int(k[0]), int(k[1])
            a, b = PolyField._coerce(a).to_terms(), PolyField._coerce(b).to_terms()
            for s in (1, -1):
                rows += [(s * k1, s * k2, i, j) for i, j, _ in a + b]
                coefs += [0.5 * v for _, _, v in a] + [complex(0.0, -0.5 * s * v) for _, _, v in b]
        return cls(rows, coefs)

    @classmethod
    def zero(cls) -> "FourierPerturbation":
        return cls((), ())

    @classmethod
    def concatenate(cls, series) -> "FourierPerturbation":
        """The sum of several series, merged at once."""
        series, divisors = _aligned(list(series))
        width = 4 + len(divisors)
        return cls(np.concatenate([s.e for s in series] + [np.zeros((0, width), np.int64)]),
                   np.concatenate([s.c for s in series] + [np.zeros(0, complex)]), divisors)

    # -- modes -----------------------------------------------------------------------

    def _modes(self):
        """(per term the sign s that makes s k canonical, 0 on the mean; the canonical modes; each term's mode)."""
        k = self.e[:, :2]
        sign = np.where(k[:, 0] != 0, np.sign(k[:, 0]), np.sign(k[:, 1]))
        modes, index = np.unique(k * sign[:, None], axis=0, return_inverse=True)
        return sign, modes.reshape(-1, 2), index.reshape(-1)

    @property
    def modes(self) -> dict:
        """{canonical k: (cos coefficient, sin coefficient)} as PolyFields; a series without divisors only."""
        if self.divisors:
            raise ValueError("a series over divisors has no polynomial coefficients")
        sign, modes, index = self._modes()
        cos, sin = [[] for _ in modes], [[] for _ in modes]
        for r, (a, b), s, c in zip(index.tolist(), self.e[:, 2:4].tolist(), sign.tolist(), self.c.tolist()):
            # a term adds Re(c) to its mode's cos coefficient and -s Im(c) to its sin one
            cos[r].append((a, b, c.real))
            sin[r].append((a, b, -s * c.imag))
        return {tuple(k): (PolyField.from_terms(x), PolyField.from_terms(y))
                for k, x, y in zip(modes.tolist(), cos, sin)}

    @property
    def mode_keys(self):
        return [tuple(k) for k in self._modes()[1].tolist()]

    @property
    def max_mode(self) -> int:
        """Largest sup-norm |k| over stored wave vectors (0 for an empty series)."""
        return int(np.max(np.abs(self.e[:, :2]), initial=0))

    @property
    def is_zero(self) -> bool:
        return len(self.c) == 0

    @property
    def is_action_independent(self) -> bool:
        return not np.any(self.e[:, 2:])

    def coefficient(self, k) -> tuple[PolyField, PolyField]:
        """(cos, sin) coefficient pair of the wave vector k, from its canonical representative."""
        key, sign = canonical_mode(k)
        a, b = self.filter(key.__eq__).modes.get(key, (PolyField.zero(), PolyField.zero()))
        return (a, b) if sign > 0 else (a, -b)

    def filter(self, predicate) -> "FourierPerturbation":
        """The terms whose canonical mode (a tuple (k1, k2)) satisfies predicate."""
        _, modes, index = self._modes()
        keep = np.array([bool(predicate(tuple(k))) for k in modes.tolist()], dtype=bool)[index]
        return self._of_merged(self.e[keep], self.c[keep], self.divisors)

    def __len__(self):
        return len(self.c)

    # -- evaluation ------------------------------------------------------------------

    def table(self, omega=None) -> ModeTable:
        """The series' ModeTable over its divisors, modes in (k1, k2) order; omega divides it.

        C e^(ix) + C' e^(-ix) = Re(C + C') cos x - Im(C - C') sin x, so a
        term adds Re(c) to its canonical mode's cos row and -s Im(c) to its
        sin row, s its sign (0 on the mean, whose sin is void).  The
        undivided table is built on first use and cached.
        """
        if omega is None and self._table is not None:
            return self._table
        sign, modes, index = self._modes()
        table = ModeTable(modes, np.concatenate([index, len(modes) + index]), np.tile(self.e[:, 2:], (2, 1)),
                          np.concatenate([self.c.real, -sign * self.c.imag]), self.divisors, omega)
        if omega is None:
            self._table = table
        return table

    def __call__(self, theta1, theta2, I1, I2):
        return self.table().values(theta1, theta2, I1, I2)

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, other: "FourierPerturbation") -> "FourierPerturbation":
        return FourierPerturbation.concatenate([self, other])

    def __sub__(self, other: "FourierPerturbation") -> "FourierPerturbation":
        return self + other * -1.0

    def __mul__(self, scalar):
        c = self.c * float(scalar)
        live = c != 0.0
        return self._of_merged(self.e[live], c[live], self.divisors)

    __rmul__ = __mul__

    def quarter_turn(self) -> "FourierPerturbation":
        """Every mode's (cos, sin) pair (a, b) turned to (-b, a): -i on k, +i on -k; the mean drops out."""
        sign = self._modes()[0]
        return FourierPerturbation(self.e, self.c * (-1j * sign), self.divisors)

    def divided(self, omega) -> "FourierPerturbation":
        """Every mode's (cos, sin) pair divided by 2 pi k.omega(I), k canonical: what table(omega) evaluates.

        A mode k = g k' with k' primitive divides by g d(k'), d(k') = k'.omega,
        which joins the series' divisors unless it is one of them already;
        modes along one k' share it.  The series must have no mean.
        """
        _, modes, index = self._modes()
        g = np.gcd(modes[:, 0], modes[:, 1])
        primitive = [tuple(p) for p in (modes // g[:, None]).tolist()]
        divisors, column = list(self.divisors), {}
        for p in sorted(set(primitive)):
            d = p[0] * omega[0] + p[1] * omega[1]
            if d not in divisors:
                divisors.append(d)
            column[p] = 4 + divisors.index(d)
        e = np.zeros((len(self.c), 4 + len(divisors)), dtype=np.int64)
        e[:, : self.e.shape[1]] = self.e
        e[np.arange(len(self.c)), np.array([column[p] for p in primitive], dtype=np.int64)[index]] += 1
        return FourierPerturbation(e, self.c * (1.0 / (TWO_PI * g[index])), divisors)

    # -- Lie brackets ----------------------------------------------------------------

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

    def bracket(self, chi: "FourierPerturbation") -> "FourierPerturbation":
        """{self, chi} = d_theta self . d_I chi - d_I self . d_theta chi, angles in turns.

        More than SERIES_MAX_PRODUCTS term products raise FlowEscapeError
        before any of them is formed.
        """
        (g, chi), divisors = _aligned([self, chi])
        e_chi_I, c_chi_I = chi._d_actions()
        e_I, c_I = g._d_actions()
        products = len(g.c) * len(c_chi_I) + len(c_I) * len(chi.c)
        if products > SERIES_MAX_PRODUCTS:
            raise FlowEscapeError(f"a bracket of {len(g)} by {len(chi)} terms would form {products} "
                                  f"products, more than {SERIES_MAX_PRODUCTS}")
        k, k_chi = g.e[:, :2, None], chi.e[None, :, :2]
        # elementwise, not through BLAS, so no kernel choice enters a sum
        out = _product_sum([
            (g.e, e_chi_I, (1j * TWO_PI * g.c)[:, None] * (k[:, 0] * c_chi_I[:, 0] + k[:, 1] * c_chi_I[:, 1])),
            (e_I, chi.e, -1j * TWO_PI * (c_I[:, :1] * k_chi[..., 0] + c_I[:, 1:] * k_chi[..., 1]) * chi.c[None, :]),
        ])
        if out is None:
            return self._of_merged(g.e[:0], g.c[:0], divisors)
        return self._of_merged(*out, divisors)

    # -- bounds and pruning ----------------------------------------------------------

    def bounds(self, window) -> np.ndarray:
        """Per term, |c| sup|I1|^a sup|I2|^b prod_j (min |d_j|)^-m_j on window.

        The sups are the window's corners; min |d_j| is taken on its 65 x 17
        grid, the grid on which generators guard their divisors.  The powers
        of the sups and of 1 / min |d_j| are the monomials of a table.
        """
        tops = [max(abs(window.i1_min), abs(window.i1_max)), max(abs(window.i2_min), abs(window.i2_max))]
        I1, I2 = window.grid(65, 17)
        inverse = [1.0 / np.min(np.abs(d(I1[:, None], I2[None, :]))) for d in self.divisors]
        return np.abs(self.c) * _monomials(self.e[:, 2:], [np.array([x]) for x in tops + inverse])[:, 0]

    def bound(self, window) -> float:
        """Sum of the per-term bounds on window, a bound on the series there."""
        return float(np.sum(self.bounds(window)))

    def pruned(self, window, floor: float):
        """(the series without the terms whose bound is <= floor, the sum of their bounds)."""
        b = self.bounds(window)
        drop = b <= floor
        return self._of_merged(self.e[~drop], self.c[~drop], self.divisors), float(np.sum(b[drop]))

    def __repr__(self):
        keys = ", ".join(str(k) for k in self.mode_keys)
        return f"FourierPerturbation(modes=[{keys}], divisors={len(self.divisors)})"
