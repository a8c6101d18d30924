"""Measured C^1 norms of series on T^2 x (action window).

|g|_C1 here is the largest of the sups of |g| and of its four first partials
(d/dtheta1, d/dtheta2, d/dI1, d/dI2).  One routine, c1_peaks, measures those
five sups for any ModeTable: the perturbation's for the optimality audit
(estimate_cj_norm) and the averaging generator's, which sizes the averaging
window (GeneratorChi.c1_norm).

Each sup is the largest |row| on one tensor grid of C1_ANGLES angles per
axis x C1_ACTIONS action points: a grid sup, an estimate from below of the
true sup.  The grid is evaluated in one streamed ModeTable.outer_blocks pass,
which computes the cos and sin of every mode once per angle point and the
weights once per action point, one slice of about fourier.BLOCK_VALUES values
at a time, so memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierPerturbation, ModeTable
from .systems import ActionWindow

# Grid of c1_peaks: C1_ANGLES points on each angle axis and C1_ACTIONS
# (I1, I2) points on the window.
C1_ANGLES = 64
C1_ACTIONS = (17, 5)

# multi-indices (d_theta1, d_theta2, d_I1, d_I2) of the five components
_FIRST_ROWS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class NormReport:
    """Measured C^j norm (j = 0 or 1) with its per-derivative breakdown.

    per_index maps the multi-index (d_theta1, d_theta2, d_I1, d_I2) to the
    grid sup of that derivative; value is the maximum over all of them.
    grid_shape is the (theta1, theta2, I1, I2) grid the sups are taken on.
    """

    order: int
    value: float
    grid_shape: tuple[int, int, int, int]
    per_index: dict = field(default_factory=dict)


def c1_peaks(table: ModeTable, window: ActionWindow) -> list[float]:
    """Grid sups of |value| and of each |first partial| of table over T^2 x window.

    The five components are (value, d/dtheta1, d/dtheta2, d/dI1, d/dI2),
    each the largest |row| on the tensor grid of C1_ANGLES^2 angles and
    C1_ACTIONS action points, so each is an estimate from below of its sup.
    """
    th = np.linspace(0.0, 1.0, C1_ANGLES, endpoint=False)
    I1, I2 = window.grid(*C1_ACTIONS)
    peaks = np.zeros(5)
    for rows in table.outer_blocks(th[:, None], th[None, :], I1[:, None], I2[None, :], grad=True):
        np.maximum(peaks, np.abs(rows, out=rows).max(axis=(1, 2)), out=peaks)
    return peaks.tolist()


def estimate_cj_norm(field_obj, j: int, window: ActionWindow) -> NormReport:
    """The C^0 (j = 0) or C^1 (j = 1) norm of a series over T^2 x window.

    The sups are the grid sups of c1_peaks on the series' own table,
    estimates from below; per_index holds the value's alone for j = 0 and
    all five components for j = 1.  A series
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
