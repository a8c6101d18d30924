"""Grid-based C^j norm estimates for fields on T^2 x (action window).

The C^j norm here is the maximum over all partial derivatives of order <= j
of the sup norm on a sampling grid.  The fields are finite Fourier series, so
the derivatives are exact (term-wise rotation/differentiation).  These are
estimates from below by construction: refine the grid to tighten them.

The grid is a tensor grid: the angle grid x the action grid.  A series is
evaluated on it through ModeTable.outer_blocks, which computes the cos and
sin of every mode once per angle point and the polynomial weights once per
action point, and forms each row as one matrix product over a slice of the
actions.  The value and the four first partials come from the field's own
table in one pass; higher derivatives come from their partial series.  A
slice holds about fourier.BLOCK_VALUES values, so memory stays bounded
whatever the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierPerturbation
from .systems import ActionWindow


@dataclass(frozen=True)
class NormReport:
    """Measured C^j norm with its per-derivative breakdown.

    per_index maps the multi-index (d_theta1, d_theta2, d_I1, d_I2) to the
    grid sup of that derivative; value is the maximum over all of them.
    """

    order: int
    value: float
    grid_shape: tuple[int, int, int, int]
    per_index: dict = field(default_factory=dict)


def _multi_indices(j: int):
    out = []
    for total in range(j + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                for a3 in range(total - a1 - a2 + 1):
                    a4 = total - a1 - a2 - a3
                    out.append((a1, a2, a3, a4))
    return out


# multi-indices of the rows ModeTable returns: the value, then the first partials
_FIRST_ROWS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _grid_sups(table, grid, grad: bool) -> list[float]:
    """Sup of |row| over the tensor grid for each row of table.outer."""
    sups = np.zeros(5 if grad else 1)
    for _, rows in table.outer_blocks(*grid, grad=grad):
        np.maximum(sups, np.abs(rows, out=rows).max(axis=(1, 2)), out=sups)
    return sups.tolist()


def estimate_cj_norm(
    field_obj,
    j: int,
    window: ActionWindow,
    n_angle: int = 128,
    n_action: int = 33,
) -> NormReport:
    """Estimate the C^j norm of a field over T^2 x window.

    Parameters
    ----------
    field_obj : FourierPerturbation
        The field to measure; any other type raises TypeError.
    j : int
        Derivative order, 0 <= j <= 4.
    window : ActionWindow
        Action box over which to sample.
    n_angle, n_action : int
        Grid points per angle axis / per action axis.
    """
    if not isinstance(field_obj, FourierPerturbation):
        raise TypeError(f"estimate_cj_norm takes a FourierPerturbation, got {type(field_obj).__name__}")
    if not 0 <= j <= 4:
        raise ValueError("derivative order j must be between 0 and 4")
    needed = max(2 * j + 1, 2)
    if n_angle < needed or n_action < needed:
        raise ValueError(
            f"grid too coarse for order {j}: need at least {needed} points per axis"
        )

    th = np.linspace(0.0, 1.0, n_angle, endpoint=False)
    I1 = np.linspace(window.i1_min, window.i1_max, n_action)
    I2 = np.linspace(window.i2_min, window.i2_max, n_action)
    shape = (n_angle, n_angle, n_action, n_action)

    # The value and the first partials come from the field's own table,
    # higher derivatives from their partial series.  Each table is evaluated
    # on the tensor grid in action slices, with its angle table computed once.
    grid = (th[:, None], th[None, :], I1[:, None], I2[None, :])
    first = dict(zip(_FIRST_ROWS, _grid_sups(field_obj.table(), grid, j >= 1)))
    per_index: dict = {}
    for alpha in _multi_indices(j):
        if alpha in first:
            per_index[alpha] = first[alpha]
        else:
            per_index[alpha] = _grid_sups(field_obj.partial(*alpha).table(), grid, False)[0]

    value = max(per_index.values())
    return NormReport(order=j, value=value, grid_shape=shape, per_index=per_index)
