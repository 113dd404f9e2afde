"""Decomposition of a 1-D rate sample into Gaussian-like components.

A Gaussian-kernel density estimate is evaluated on a uniform grid; interior
local minima of the density (equivalently, points where the discrete second
derivative is positive between two modes) become segment boundaries. Each
segment turns into one component carrying the sample moments and the sample
fraction of its values.

Segments holding less than ``MIN_WEIGHT`` of the sample are merged into a
neighbor across their weaker (higher-density) boundary, so a stray outlier
cannot manufacture a near-empty component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_POINTS = 256   # density grid size
MIN_WEIGHT = 0.01   # smallest sample fraction a segment keeps on its own


@dataclass(frozen=True)
class GaussComponent:
    mean: float
    std: float
    weight: float
    count: int
    degenerate: bool = False


def silverman_bandwidth(values) -> float:
    """Rule-of-thumb kernel bandwidth 1.06 * std * n^(-1/5)."""
    data = np.asarray(values, dtype=float)
    return float(1.06 * data.std() * len(data) ** (-0.2))


def kernel_density(values, bandwidth: float):
    """Gaussian-kernel density on a uniform grid of ``GRID_POINTS`` points
    spanning the data +- 3 bw."""
    data = np.asarray(values, dtype=float)
    grid = np.linspace(data.min() - 3 * bandwidth, data.max() + 3 * bandwidth, GRID_POINTS)
    z = (grid[:, None] - data[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(data) * bandwidth * np.sqrt(2 * np.pi))
    return grid, density


def density_minima(density) -> list[int]:
    """Indices of strict interior local minima (positive second difference)."""
    d2 = density[:-2] - 2 * density[1:-1] + density[2:]
    idx = []
    for i in range(1, len(density) - 1):
        if density[i] < density[i - 1] and density[i] < density[i + 1] and d2[i - 1] > 0:
            idx.append(i)
    return idx


def decompose_gaussian_1d(values, bandwidth: float | None = None) -> list[GaussComponent]:
    """Split a sample into components separated at density minima.

    Components come back ordered by mean. A zero-variance sample (or
    segment) yields a degenerate component whose std is the bandwidth.
    """
    data = np.asarray(values, dtype=float)
    n = len(data)
    if n < 2:
        raise ValueError("need at least two values")

    if float(data.min()) == float(data.max()):
        bw = bandwidth if bandwidth is not None and bandwidth > 0 else 1.0
        return [GaussComponent(float(data[0]), bw, 1.0, n, degenerate=True)]

    if bandwidth is None:
        bandwidth = silverman_bandwidth(data)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    grid, density = kernel_density(data, bandwidth)
    minima = density_minima(density)
    boundaries = [float(grid[i]) for i in minima]
    boundary_density = [float(density[i]) for i in minima]

    def segment_counts(bounds: list[float]) -> list[int]:
        seg = np.searchsorted(np.array(bounds), data, side="right")
        return [int((seg == s).sum()) for s in range(len(bounds) + 1)]

    # Drop boundaries producing undersized segments, weakest boundary first.
    counts = segment_counts(boundaries)
    while boundaries and min(counts) < MIN_WEIGHT * n:
        s = counts.index(min(counts))
        if s == 0:
            cut = 0
        elif s == len(boundaries):
            cut = len(boundaries) - 1
        else:
            # Merge across the higher-density (weaker) side.
            cut = s - 1 if boundary_density[s - 1] >= boundary_density[s] else s
        del boundaries[cut], boundary_density[cut]
        counts = segment_counts(boundaries)

    segment = np.searchsorted(np.array(boundaries), data, side="right")
    components = []
    for s in range(len(boundaries) + 1):
        part = data[segment == s]
        if len(part) == 0:
            continue
        std = float(part.std())
        degenerate = std == 0.0
        components.append(
            GaussComponent(
                float(part.mean()),
                bandwidth if degenerate else std,
                len(part) / n,
                len(part),
                degenerate=degenerate,
            )
        )
    return components
