"""The whole-matrix density, kept as the oracle for
``analytics.kernel_density``.

``sdnsim.analytics`` builds the grid-by-data kernel matrix a block of grid
rows at a time. This module keeps the evaluation it replaced, which builds
the whole 256 x n matrix at once; both must return the same grid and the
same density, bit for bit.
"""

import numpy as np

from sdnsim.analytics import GRID_POINTS


def kernel_density(values, bandwidth: float):
    data = np.asarray(values, dtype=float)
    grid = np.linspace(data.min() - 3 * bandwidth, data.max() + 3 * bandwidth, GRID_POINTS)
    z = (grid[:, None] - data[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(data) * bandwidth * np.sqrt(2 * np.pi))
    return grid, density
