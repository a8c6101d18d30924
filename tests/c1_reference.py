"""The measured C^1 peaks as they ran before tensor grids, shared by the tests.

Every component is evaluated point by point on one 4-D meshgrid.
"""

import numpy as np


def reference_c1_peaks(table, window, n_theta=64, n_action=(17, 5)):
    """Grid sups of |value|, |d/dtheta1|, |d/dtheta2|, |d/dI1| and |d/dI2| of table."""
    th = np.linspace(0.0, 1.0, n_theta, endpoint=False)
    I1, I2 = window.grid(*n_action)
    grids = np.meshgrid(th, th, I1, I2, indexing="ij")
    return [float(np.max(vals)) for vals in np.abs(np.asarray(table.evaluate(*grids)))]
