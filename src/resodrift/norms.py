"""Measured C^1 norms of series on T^2 x (action window).

|g|_C1 here is the largest of the sups of |g| and of its four first partials
(d/dtheta1, d/dtheta2, d/dI1, d/dI2).  One routine, c1_peaks, measures those
five sups for any ModeTable: the perturbation's for the optimality audit
(estimate_cj_norm) and the averaging generator's, which sizes the averaging
window (GeneratorChi.c1_norm).

A coarse tensor grid of C1_ANGLES angles per axis x C1_ACTIONS action points
locates each component's maximizer.  It is evaluated through
ModeTable.outer_blocks, which computes the cos and sin of every mode once per
angle point and the weights once per action point, one slice of about
fourier.BLOCK_VALUES values at a time, so memory stays bounded.  C1_ROUNDS
rounds of a halving 5-point local grid about each maximizer then polish the
peaks, so they are not limited by the coarse resolution.  The series are
exact, so the peaks are sups over sample points: estimates from below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierPerturbation, ModeTable
from .systems import ActionWindow

# Grids of c1_peaks: C1_ANGLES points on each angle axis and C1_ACTIONS
# (I1, I2) points on the window locate each component's maximizer, and
# C1_ROUNDS rounds of a halving local grid polish it.
C1_ANGLES = 64
C1_ACTIONS = (17, 5)
C1_ROUNDS = 25

# multi-indices (d_theta1, d_theta2, d_I1, d_I2) of the five components
_FIRST_ROWS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class NormReport:
    """Measured C^j norm (j = 0 or 1) with its per-derivative breakdown.

    per_index maps the multi-index (d_theta1, d_theta2, d_I1, d_I2) to the
    measured sup of that derivative; value is the maximum over all of them.
    grid_shape is the coarse grid that located the maximizers.
    """

    order: int
    value: float
    grid_shape: tuple[int, int, int, int]
    per_index: dict = field(default_factory=dict)


def c1_peaks(table: ModeTable, window: ActionWindow) -> list[float]:
    """Sups of |value| and of each |first partial| of table over T^2 x window.

    The five components are (value, d/dtheta1, d/dtheta2, d/dI1, d/dI2).
    Each is located on the coarse grid and polished by C1_ROUNDS rounds of a
    5-point local grid whose half-width starts at one coarse step and halves
    every round; a round evaluates the five components' local grids in one
    table call.
    """
    w = window
    th = np.linspace(0.0, 1.0, C1_ANGLES, endpoint=False)
    axes = (th, th, *w.grid(*C1_ACTIONS))
    found = _grid_argmax(table, axes)
    peaks = np.array([peak for peak, _ in found])
    # center[c] is component c's maximizer in (theta1, theta2, I1, I2)
    center = np.array([[ax[i] for ax, i in zip(axes, idx)] for _, idx in found])
    radius = np.array(
        [1.0 / C1_ANGLES, 1.0 / C1_ANGLES,
         (w.i1_max - w.i1_min) / (C1_ACTIONS[0] - 1), (w.i2_max - w.i2_min) / (C1_ACTIONS[1] - 1)]
    )
    floor = np.array([-np.inf, -np.inf, w.i1_min, w.i2_min])
    ceiling = np.array([np.inf, np.inf, w.i1_max, w.i2_max])
    c = np.arange(5)
    for _ in range(C1_ROUNDS):
        lo = np.maximum(center - radius, floor)
        hi = np.minimum(center + radius, ceiling)
        local = np.linspace(lo, hi, 5, axis=-1)
        rows = table.outer(
            local[:, 0, :, None], local[:, 1, None, :], local[:, 2, :, None], local[:, 3, None, :],
            grad=True,
        )
        # component c on its own grid, in (theta1, theta2, I1, I2) order
        vals = np.abs(rows[c, c, :, :, c].transpose(0, 3, 4, 1, 2)).reshape(5, -1)
        best = np.argmax(vals, axis=1)
        peaks = np.maximum(peaks, vals[c, best])
        idx = np.unravel_index(best, (5,) * 4)
        center = np.stack([local[c, d, i] for d, i in enumerate(idx)], axis=1)
        radius *= 0.5
    return peaks.tolist()


def _grid_argmax(table: ModeTable, axes):
    """(sup, index) of each |component| of table on the tensor grid of the 1-D axes.

    axes are (theta1, theta2, I1, I2), and each index is into the four axes.
    Ties go to the first point in (theta1, theta2, I1, I2) order, across the
    action slices of ModeTable.outer_blocks too.
    """
    t1, t2, x1, x2 = axes
    found = [(-1.0, 0, 0)] * 5
    grid = (t1[:, None], t2[None, :], x1[:, None], x2[None, :])
    for actions, rows in table.outer_blocks(*grid, grad=True):
        for c, vals in enumerate(np.abs(rows, out=rows)):
            # vals is (action, angle): the first maximizer has the smallest
            # angle index, then the smallest action index at that angle
            per_angle = vals.max(axis=0)
            angle = int(np.argmax(per_angle))
            peak = per_angle[angle]
            action = int(np.argmax(vals[:, angle] == peak))
            found[c] = max(found[c], (float(peak), -angle, -(actions.start + action)))
    shapes = ((len(t1), len(t2)), (len(x1), len(x2)))
    return [
        (peak, np.unravel_index(-angle, shapes[0]) + np.unravel_index(-action, shapes[1]))
        for peak, angle, action in found
    ]


def estimate_cj_norm(field_obj, j: int, window: ActionWindow) -> NormReport:
    """The C^0 (j = 0) or C^1 (j = 1) norm of a series over T^2 x window.

    The sups come from c1_peaks on the series' own table; per_index holds the
    value's alone for j = 0 and all five components for j = 1.  A series
    that is not a FourierPerturbation raises TypeError, any other j
    ValueError.
    """
    if not isinstance(field_obj, FourierPerturbation):
        raise TypeError(f"estimate_cj_norm takes a FourierPerturbation, got {type(field_obj).__name__}")
    if j not in (0, 1):
        raise ValueError("derivative order j must be 0 or 1")
    peaks = [0.0] * 5 if field_obj.is_zero else c1_peaks(field_obj.table(), window)
    per_index = dict(zip(_FIRST_ROWS[: 5 if j else 1], peaks))
    return NormReport(
        order=j,
        value=max(per_index.values()),
        grid_shape=(C1_ANGLES, C1_ANGLES, *C1_ACTIONS),
        per_index=per_index,
    )
