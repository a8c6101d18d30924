"""The measured C^1 peaks as they ran before tensor grids, shared by the tests.

Each component is located on 4-D meshgrids evaluated point by point and
refined on its own local meshgrids, one component at a time.
"""

import numpy as np


def reference_c1_peaks(table, window, n_theta=64, n_action=(17, 5), refine_rounds=25):
    """Peaks of |value|, |d/dtheta1|, |d/dtheta2|, |d/dI1| and |d/dI2| of table.

    Ties go to the first point in (theta1, theta2, I1, I2) order, through
    argmax on the meshgrid.
    """

    def components(*points):
        return np.abs(np.asarray(table.evaluate(*points)))

    th = np.linspace(0.0, 1.0, n_theta, endpoint=False)
    I1, I2 = window.grid(*n_action)
    T1, T2, A1, A2 = np.meshgrid(th, th, I1, I2, indexing="ij")
    spans = np.array(
        [1.0 / n_theta, 1.0 / n_theta,
         (window.i1_max - window.i1_min) / (n_action[0] - 1),
         (window.i2_max - window.i2_min) / max(n_action[1] - 1, 1)]
    )
    peaks = []
    for c, vals in enumerate(components(T1, T2, A1, A2)):
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        center = np.array([T1[idx], T2[idx], A1[idx], A2[idx]])
        radius = spans.copy()
        peak = float(vals[idx])
        for _ in range(refine_rounds):
            axes = []
            for d in range(4):
                lo, hi = center[d] - radius[d], center[d] + radius[d]
                if d == 2:
                    lo, hi = max(lo, window.i1_min), min(hi, window.i1_max)
                if d == 3:
                    lo, hi = max(lo, window.i2_min), min(hi, window.i2_max)
                axes.append(np.linspace(lo, hi, 5))
            L = np.meshgrid(*axes, indexing="ij")
            local = components(*L)[c]
            lidx = np.unravel_index(int(np.argmax(local)), local.shape)
            peak = max(peak, float(local[lidx]))
            center = np.array([grid[lidx] for grid in L])
            radius *= 0.5
        peaks.append(peak)
    return peaks
