"""Reduction of a resonance line to the standard chart {I2 = 0}.

A resonance k . I + a = 0 is straightened by the symplectic change of
variables built from an integer unimodular matrix whose second column is the
(primitive) wave vector, combined with the translation that absorbs the
offset a.  Angles transform by the matrix, actions by the inverse transpose;
Fourier modes relabel by the transpose.  Everything is exact integer or
closed-form polynomial arithmetic, so the conjugacy holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable

import numpy as np

from .errors import DomainError
from .fourier import FourierPerturbation
from .integrate import OrbitRecord, _channel_distance
from .poly import PolyField
from .systems import IntegrableSystem, ResonanceData
from .torus import PhaseState, wrap


def primitive_vector(k) -> tuple[tuple[int, int], int]:
    """(k/g, g) where g = gcd(|k1|, |k2|); the zero vector is rejected."""
    k1, k2 = int(k[0]), int(k[1])
    if k1 == 0 and k2 == 0:
        raise ValueError("wave vector must be nonzero")
    g = math.gcd(abs(k1), abs(k2))
    return (k1 // g, k2 // g), g


def unimodular_completion(k) -> np.ndarray:
    """Integer matrix M with det M = 1 and M e2 = k, for primitive k.

    The free Bezout pair (a, b) with a k1 + b k2 = 1 is fixed by minimizing
    max(|a|, |b|), then |a|, then |b|, which keeps the matrix entries as
    small as the lattice allows.  The first column is (b, -a).
    """
    (k1, k2), g = primitive_vector(k)
    if g != 1:
        raise ValueError("unimodular completion needs a primitive wave vector")
    a0, b0 = _bezout(k1, k2)
    best = None
    # general solution: (a, b) = (a0 + t k2, b0 - t k1)
    centers = []
    if k2 != 0:
        centers.append(round(-a0 / k2))
    if k1 != 0:
        centers.append(round(b0 / k1))
    if not centers:
        centers = [0]
    for t in range(min(centers) - 2, max(centers) + 3):
        a = a0 + t * k2
        b = b0 - t * k1
        key = (max(abs(a), abs(b)), abs(a), abs(b))
        if best is None or key < best[0]:
            best = (key, a, b)
    _, a, b = best
    M = np.array([[b, k1], [-a, k2]], dtype=int)
    assert int(round(np.linalg.det(M))) == 1
    return M


def _bezout(k1: int, k2: int) -> tuple[int, int]:
    """(a, b) with a k1 + b k2 = gcd(k1, k2) by the extended Euclid recursion."""
    old_r, r = k1, k2
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    if old_r < 0:
        old_a, old_b = -old_a, -old_b
    return old_a, old_b


@dataclass(frozen=True)
class UnimodularMap:
    """Integer change of torus variables with its exact inverse data.

    The symplectic lift sends reduced coordinates to original ones by
    theta = M theta~,  I = M^-T I~.  All four matrices are stored as exact
    integer arrays; the inverse of a determinant +-1 integer matrix is again
    integer, so round trips are exact apart from the final angle wrap.
    """

    M: tuple

    def __post_init__(self):
        M = np.asarray(self.M, dtype=int)
        if M.shape != (2, 2):
            raise ValueError("expected a 2x2 integer matrix")
        if abs(int(round(np.linalg.det(M)))) != 1:
            raise ValueError("matrix must have determinant +-1")
        object.__setattr__(self, "M", tuple(tuple(int(v) for v in row) for row in M))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.M, dtype=int)

    @property
    def det(self) -> int:
        M = self.matrix
        return int(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])

    @property
    def inverse(self) -> np.ndarray:
        M = self.matrix
        adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=int)
        return adj * self.det  # det is +-1, so this divides exactly

    @property
    def transpose_inverse(self) -> np.ndarray:
        return self.inverse.T

    def relabel_mode(self, m) -> tuple[int, int]:
        """Wave vector in reduced angles: m~ = M^T m."""
        M = self.matrix
        return (
            int(M[0, 0] * m[0] + M[1, 0] * m[1]),
            int(M[0, 1] * m[0] + M[1, 1] * m[1]),
        )


def _to_reduced_chart(umap: UnimodularMap, translation, theta1, theta2, I1, I2):
    """Original coordinates to the chart straightened by umap and translation."""
    M_inv = umap.inverse.astype(float)
    Mt = umap.matrix.T.astype(float)
    t1, t2 = np.asarray(theta1, float), np.asarray(theta2, float)
    J1 = np.asarray(I1, float) - translation[0]
    J2 = np.asarray(I2, float) - translation[1]
    th1 = wrap(M_inv[0, 0] * t1 + M_inv[0, 1] * t2)
    th2 = wrap(M_inv[1, 0] * t1 + M_inv[1, 1] * t2)
    A1 = Mt[0, 0] * J1 + Mt[0, 1] * J2
    A2 = Mt[1, 0] * J1 + Mt[1, 1] * J2
    return th1, th2, A1, A2


@dataclass(frozen=True)
class ReductionResult:
    """Straightened chart for one resonance line, with exact transport maps.

    system and perturbation are the reduced pair; translation is the action
    shift absorbing the line offset; orientation_flipped records the k -> -k
    retry used to make the transverse frequency positive.  checks carries the
    residuals measured while building the chart.
    """

    umap: UnimodularMap
    translation: tuple
    system: IntegrableSystem
    perturbation: FourierPerturbation
    primitive_scale: int
    orientation_flipped: bool
    checks: dict

    # -- point transport ---------------------------------------------------------

    def forward_points(self, theta1, theta2, I1, I2):
        """Original coordinates to the reduced chart, arrays welcome."""
        return _to_reduced_chart(self.umap, self.translation, theta1, theta2, I1, I2)

    def backward_points(self, theta1, theta2, I1, I2):
        """Reduced chart back to original coordinates, arrays welcome."""
        M = self.umap.matrix.astype(float)
        Mti = self.umap.transpose_inverse.astype(float)
        t1, t2 = np.asarray(theta1, float), np.asarray(theta2, float)
        A1, A2 = np.asarray(I1, float), np.asarray(I2, float)
        th1 = wrap(M[0, 0] * t1 + M[0, 1] * t2)
        th2 = wrap(M[1, 0] * t1 + M[1, 1] * t2)
        J1 = Mti[0, 0] * A1 + Mti[0, 1] * A2 + self.translation[0]
        J2 = Mti[1, 0] * A1 + Mti[1, 1] * A2 + self.translation[1]
        return th1, th2, J1, J2

    def forward(self, state: PhaseState) -> PhaseState:
        th1, th2, I1, I2 = self.forward_points(
            state.angles.theta1, state.angles.theta2, state.actions.I1, state.actions.I2
        )
        return PhaseState.make(float(th1), float(th2), float(I1), float(I2))

    def report(self) -> dict:
        out = {
            "matrix": [list(row) for row in self.umap.M],
            "determinant": self.umap.det,
            "translation": list(self.translation),
            "primitive_scale": self.primitive_scale,
            "orientation_flipped": self.orientation_flipped,
            "reduced_R": self.system.R,
            "reduced_varpi": self.system.resonance.varpi,
            "reduced_S": [list(p) for p in self.system.resonance.S],
            "reduced_S_star": [list(p) for p in self.system.resonance.S_star],
        }
        out.update(self.checks)
        return out


def _map_segment(result_points, points: Iterable, snap_tol: float = 1e-9):
    """Transport line points to the reduced chart, snapping I2 to the axis."""
    mapped = []
    worst = 0.0
    for p in points:
        _, _, A1, A2 = result_points(0.0, 0.0, p[0], p[1])
        worst = max(worst, abs(float(A2)))
        if abs(float(A2)) > snap_tol:
            raise DomainError(
                f"channel endpoint {tuple(p)} maps {A2:.3e} off the reduced axis"
            )
        mapped.append((float(A1), 0.0))
    return mapped, worst


def reduce_system(
    system: IntegrableSystem, f: FourierPerturbation
) -> ReductionResult:
    """Straighten the resonance of a system to the chart k = (0, 1), a = 0.

    The wave vector is made primitive first (the line is unchanged; the
    transverse margin rescales by the gcd).  If the transverse frequency
    comes out negative on the mapped segment the construction is redone with
    the opposite wave vector, which flips the sign; the flag records this.
    The reduced domain radius shrinks so that the reduced ball maps into the
    original one.
    """
    res = system.resonance
    if res.is_reduced:
        raise ValueError("system is already in the reduced chart")
    kp, g = primitive_vector(res.k)
    a_p = res.a / g
    varpi_p = res.varpi * g

    flipped = False
    for attempt in range(2):
        k_use = (-kp[0], -kp[1]) if flipped else kp
        a_use = -a_p if flipped else a_p
        M = unimodular_completion(k_use)
        umap = UnimodularMap(tuple(tuple(int(v) for v in row) for row in M))
        norm2 = k_use[0] ** 2 + k_use[1] ** 2
        T = (-a_use * k_use[0] / norm2, -a_use * k_use[1] / norm2)

        to_reduced = partial(_to_reduced_chart, umap, T)
        A = umap.transpose_inverse.astype(float)
        h_reduced = system.h.compose_affine(A, np.asarray(T))
        om2 = h_reduced.partial(0, 1)
        # transverse frequency on the mapped segment midpoint decides the sign
        mids = res.segment_points(9, star=True)
        _, _, A1_mid, _ = to_reduced(0.0, 0.0, mids[:, 0], mids[:, 1])
        signs = om2(A1_mid, np.zeros_like(A1_mid))
        if np.all(signs > 0):
            break
        if np.all(signs < 0) and not flipped:
            flipped = True
            continue
        raise DomainError(
            "transverse frequency changes sign on the channel; the segment "
            "does not satisfy the reduction hypotheses"
        )

    # reduced radius: the reduced ball must map inside the original one
    Mti = umap.transpose_inverse.astype(float)
    row_sum = float(np.max(np.sum(np.abs(Mti), axis=1)))
    T_norm = max(abs(T[0]), abs(T[1]))
    R_reduced = (system.R - T_norm) / row_sum
    if R_reduced <= 0:
        raise DomainError("translation leaves no room inside the action domain")

    S_mapped, slop_S = _map_segment(to_reduced, res.S)
    S_star_mapped, slop_star = _map_segment(to_reduced, res.S_star)

    # the along-line frequency must vanish on the straightened channel, or
    # the segment was never a channel of the integrable part to begin with
    om1 = h_reduced.partial(1, 0)
    S_full = res.segment_points(9)
    _, _, P1, _ = to_reduced(0.0, 0.0, S_full[:, 0], S_full[:, 1])
    parallel = float(np.max(np.abs(om1(P1, np.zeros_like(P1)))))
    if parallel > 1e-9:
        raise DomainError(
            "integrable part is not constant along the channel segment "
            f"(max |omega1| = {parallel:.3e} in the reduced chart)"
        )

    res_reduced = ResonanceData(
        k=(0, 1),
        a=0.0,
        S=tuple(S_mapped),
        S_star=tuple(S_star_mapped),
        varpi=varpi_p,
        delta_star=res.delta_star,
    )
    system_reduced = IntegrableSystem(h_reduced, R_reduced, res_reduced)

    terms = []
    for m, (a_poly, b_poly) in f.modes.items():
        m_new = umap.relabel_mode(m)
        terms.append(
            (
                m_new,
                a_poly.compose_affine(A, np.asarray(T)),
                b_poly.compose_affine(A, np.asarray(T)),
            )
        )
    f_reduced = FourierPerturbation.from_terms(terms)

    checks = {
        "segment_axis_residual": max(slop_S, slop_star),
        "min_transverse_frequency": float(np.min(signs)),
        "max_parallel_frequency": parallel,
    }
    return ReductionResult(
        umap=umap,
        translation=T,
        system=system_reduced,
        perturbation=f_reduced,
        primitive_scale=g,
        orientation_flipped=flipped,
        checks=checks,
    )


def map_orbit(
    result: ReductionResult, record: OrbitRecord, direction: str = "forward"
) -> OrbitRecord:
    """Transport an orbit record between the original and reduced charts.

    direction "forward" carries an orbit of the original system into the
    reduced chart and recomputes the channel diagnostics there.  "backward"
    re-expresses a reduced-chart orbit in the original coordinates; the
    diagnostics are kept, since distance-to-channel is defined in the reduced
    chart and the map is a conjugacy.  Energy samples are copied unchanged in
    both directions for the same reason.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    mapper = result.forward_points if direction == "forward" else result.backward_points
    th1, th2, A1, A2 = mapper(
        record.theta[:, 0], record.theta[:, 1], record.actions[:, 0], record.actions[:, 1]
    )
    theta = np.column_stack([th1, th2])
    actions = np.column_stack([A1, A2])
    y_end = np.array(
        mapper(record.y_end[0], record.y_end[1], record.y_end[2], record.y_end[3]),
        dtype=float,
    )
    if direction == "backward":
        return replace(record, theta=theta, actions=actions, y_end=y_end)
    interval = result.system.resonance.s1_interval(star=True)
    return replace(
        record,
        theta=theta,
        actions=actions,
        abs_I2=np.abs(A2),
        dist_channel=_channel_distance(A1, A2, interval),
        y_end=y_end,
    )
