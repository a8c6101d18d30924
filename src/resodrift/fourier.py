"""Finite real Fourier series on T^2 with polynomial action coefficients.

A perturbation is stored as

    f(theta, I) = sum_k  a_k(I) cos(2 pi k.theta) + b_k(I) sin(2 pi k.theta)

over a finite set of integer wave vectors k, with a_k and b_k exact
:class:`~resodrift.poly.PolyField` coefficients.  Keys are canonicalized so the
series is real by construction: each stored k has its first nonzero component
positive, and the reflected term is folded in through the parity of cos/sin.

A :class:`FourierPerturbation` holds the data and the algebra.  Every such
series, the averaging generators included, is evaluated through one packed
:class:`ModeTable`: an integer mode matrix and cos/sin coefficient tensors,
read through one power table of the actions.  The table also gives every
first partial in closed form (angle derivatives rotate the cos/sin pair and
scale by 2 pi k, action derivatives differentiate the coefficient
polynomials), which is what vector fields, generator flows, norm estimates
and the genericity scan read.
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

    K is the (m, 2) integer mode matrix; the cos and sin coefficients are
    packed as (m, n1, n2) tensors whose entry [k, i, j] multiplies
    I1**i * I2**j.  An action derivative is the same tensor shifted one index
    down with the factor i (or j); an angle derivative rotates the cos/sin
    pair and scales by 2 pi k.  Values and first partials are all read off
    one power table of (I1, I2).

    Given omega, a pair of polynomials (the frequency map), the table is
    divided: omega only enters the divisors, every mode is divided by
    D_k = 2 pi k.omega(I), and the action derivatives follow the quotient
    rule with dD_k/dI = 2 pi k.(d omega/dI).  Without omega the series is
    evaluated as it stands; a Hamiltonian h + eps f is such a series, with
    h on the mode (0, 0), so its rows are H and its four first partials.

    Evaluation has two branches, chosen by the shape of the input.  A single
    point of an undivided table is read as four float64 values, whatever
    their real type, and evaluated in plain Python floats by one
    straight-line function that the table generates on first use
    (:meth:`point_function`): one math.cos and one math.sin per mode, the
    action powers by repeated multiplication, and one sum per row over the
    terms of :meth:`_compile_terms`.  An orbit RHS call on generic3, which
    calls that function directly, costs 1.8-3.5 us this way, against
    5.8-9.8 us through the interpreted loop over the term lists that it
    replaced (best of 5 x 20,000 calls, 2-vCPU VM).  Arrays (and divided
    tables) are evaluated in blocks of block_points points, on one BLAS thread
    (:func:`~resodrift.blas.serial_blas`); the single-point branch never
    enters that guard, so an orbit RHS call pays nothing for it.
    """

    __slots__ = ("K", "divided", "block_points", "_Kf", "_k1", "_k2",
                 "_e1", "_e2", "_W", "_n_poly", "_n1", "_n2", "_w", "_point", "point_source")

    def __init__(self, modes: dict, omega=None):
        keys = sorted(modes)
        polys = [modes[k][0] for k in keys] + [modes[k][1] for k in keys] + list(omega or ())
        n1 = max((p.coeffs.shape[0] for p in polys), default=1)
        n2 = max((p.coeffs.shape[1] for p in polys), default=1)
        P = np.zeros((len(polys), n1, n2))
        for row, p in zip(P, polys):
            row[: p.coeffs.shape[0], : p.coeffs.shape[1]] = p.coeffs
        m = len(keys)
        self.K = np.array(keys, dtype=int).reshape(m, 2)
        self.divided = omega is not None
        dP1 = np.zeros_like(P)
        dP1[:, :-1, :] = P[:, 1:, :] * np.arange(1, n1)[:, None]
        dP2 = np.zeros_like(P)
        dP2[:, :, :-1] = P[:, :, 1:] * np.arange(1, n2)
        # one row per (block, polynomial); blocks are value, d/dI1, d/dI2
        self._W = np.stack([P, dP1, dP2]).reshape(3 * len(polys), n1 * n2)
        self._n_poly = len(polys)
        # the power table and the polynomial rows are the widest temporaries
        self.block_points = max(1, BLOCK_VALUES // (n1 * n2 + 3 * len(polys)))
        self._Kf = self.K.astype(float)
        self._k1, self._k2 = self._Kf[:, 0].copy(), self._Kf[:, 1].copy()
        self._e1, self._e2 = np.arange(n1), np.arange(n2)
        # the single-point branch works in Python floats and ints
        self._n1, self._n2 = n1, n2
        self._w = (TWO_PI * self._Kf).tolist()
        self._point = self.point_source = None

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
        power = (x1 ** self._e1[:, None])[:, None, :] * (x2 ** self._e2[:, None])[None, :, :]
        return self._W[: blocks * self._n_poly] @ power.reshape(-1, len(x1))

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
        if not self.divided and isinstance(t1, _SCALAR) and isinstance(t2, _SCALAR) \
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
        the inputs; a single point of an undivided table gives a list of
        floats.
        """
        return self._run((theta1, theta2, I1, I2), True)

    def values(self, theta1, theta2, I1, I2):
        """The series alone; a float for a single point."""
        out = self._run((theta1, theta2, I1, I2), False)
        return float(out) if np.ndim(out) == 0 else out

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
        per_action = rows * (n_angle + trig.shape[0]) + sum(self._W.shape)
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
            self._table = ModeTable(self._modes)
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
