"""The numpy formulation of the analytics, kept as the test oracle.

``sdnsim.analytics`` needs the standard library alone. These are the numpy
implementations it replaced, copied verbatim, and the differential tests
(``test_numpy_oracle.py``) require the same results from both, bit for bit.
Only ``math.exp`` and numpy's SIMD ``exp`` may differ in the last ulp, so
the density and the Gaussian split are compared with the oracle taking its
``exp`` from ``math``, and the density to within a few ulp of numpy's own.

Two helpers are numpy's own: ``median`` is ``numpy.median``, and a cluster's
sharpness is ``numpy.mean`` of its ratios (at most four, which numpy adds in
order from 0.0, as the builtin ``sum()`` did before Python 3.12).
"""

import numpy as np

from sdnsim.analytics import (
    GRID_POINTS,
    MAX_ITER,
    MIN_WEIGHT,
    Clustering,
    DetectionReport,
    FeatureVector,
    GaussComponent,
)
from sdnsim.topology import ip_key

KDE_BLOCK = 8192  # kernel matrix elements per block; no row sum depends on it


def cluster_sharpness(centroid, std) -> float:
    ratios = [s / c for c, s in zip(centroid, std) if c != 0.0]
    return float(np.mean(ratios)) if ratios else 0.0


def median(values: list[float]) -> float:
    return float(np.median(values))


def kmeans(features: list[FeatureVector], k: int) -> Clustering:
    """Cluster feature vectors into at most k groups, in at most
    ``MAX_ITER`` Lloyd iterations."""
    if not features:
        raise ValueError("no features to cluster")
    if k < 1 or k > len(features):
        raise ValueError(f"k must be in [1, {len(features)}], got {k}")

    clients = [f.client for f in features]
    points = np.array([f.as_tuple() for f in features], dtype=float)

    order = sorted(range(len(clients)), key=lambda i: ip_key(clients[i]))

    def tie_break(candidates: np.ndarray) -> int:
        return min(candidates.tolist(), key=lambda i: ip_key(clients[i]))

    chosen = [order[0]]
    min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < k:
        best = min_dist.max()
        idx = tie_break(np.flatnonzero(min_dist == best))
        chosen.append(idx)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[idx], axis=1))

    centroids = points[chosen].copy()
    labels = np.full(len(points), -1, dtype=int)
    history: list[float] = []
    for _ in range(MAX_ITER):
        dist_sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist_sq.argmin(axis=1)
        history.append(float(dist_sq[np.arange(len(points)), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        # Empty clusters are dropped and the survivors renumbered in order
        # (not by np.unique, which imports numpy.ma, about 14 ms of start-up).
        present = sorted(set(new_labels.tolist()))
        remap = {old: new for new, old in enumerate(present)}
        labels = np.array([remap[l] for l in new_labels.tolist()], dtype=int)
        centroids = np.array(
            [points[labels == c].mean(axis=0) for c in range(len(present))]
        )

    # The first iteration always updates, so each centroid is now the mean
    # of its members under the final labels.
    means = [tuple(float(v) for v in c) for c in centroids]
    stds = []
    members: list[list[str]] = []
    for c in range(len(centroids)):
        mask = labels == c
        stds.append(tuple(float(v) for v in points[mask].std(axis=0)))
        members.append(sorted((clients[i] for i in np.flatnonzero(mask)), key=ip_key))
    return Clustering(len(centroids), means, members, stds, history)


def compare_clusterings(
    prev: Clustering, cur: Clustering, match_radius: float
) -> list[int]:
    """Indices of current clusters with no previous centroid within radius."""
    new_indices = []
    prev_centroids = [np.array(c) for c in prev.centroids]
    for idx, centroid in enumerate(cur.centroids):
        point = np.array(centroid)
        if not any(
            float(np.linalg.norm(point - old)) <= match_radius
            for old in prev_centroids
        ):
            new_indices.append(idx)
    return new_indices


def silverman_bandwidth(values) -> float:
    """Rule-of-thumb kernel bandwidth 1.06 * std * n^(-1/5)."""
    data = np.asarray(values, dtype=float)
    return float(1.06 * data.std() * len(data) ** (-0.2))


def kernel_density(values, bandwidth: float):
    """Gaussian-kernel density on a uniform grid of ``GRID_POINTS`` points
    spanning the data +- 3 bw.

    The grid-by-data kernel matrix is built ``KDE_BLOCK`` elements (at
    least one grid row) at a time. Each grid point's density is the same
    row sum as over the whole matrix at once, bit for bit.
    """
    data = np.asarray(values, dtype=float)
    grid = np.linspace(data.min() - 3 * bandwidth, data.max() + 3 * bandwidth, GRID_POINTS)
    density = np.empty(GRID_POINTS)
    rows = max(1, KDE_BLOCK // len(data))
    for start in range(0, GRID_POINTS, rows):
        z = (grid[start:start + rows, None] - data[None, :]) / bandwidth
        density[start:start + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    density /= len(data) * bandwidth * np.sqrt(2 * np.pi)
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

    # Drop boundaries producing undersized segments, weakest boundary first.
    while True:
        segment = np.searchsorted(np.array(boundaries), data, side="right")
        counts = np.bincount(segment, minlength=len(boundaries) + 1).tolist()
        if not boundaries or min(counts) >= MIN_WEIGHT * n:
            break
        s = counts.index(min(counts))
        if s == 0:
            cut = 0
        elif s == len(boundaries):
            cut = len(boundaries) - 1
        else:
            # Merge across the higher-density (weaker) side.
            cut = s - 1 if boundary_density[s - 1] >= boundary_density[s] else s
        del boundaries[cut], boundary_density[cut]

    components = []
    for s, count in enumerate(counts):
        if count == 0:
            continue
        part = data[segment == s]
        std = float(part.std())
        degenerate = std == 0.0
        components.append(
            GaussComponent(
                float(part.mean()),
                bandwidth if degenerate else std,
                count / n,
                count,
                degenerate=degenerate,
            )
        )
    return components


def detect(
    aggregate_byte_rate: float,
    threshold: float,
    clustering: Clustering,
) -> DetectionReport:
    """Build the verdict for one poll interval.

    The volume check is strict: a rate exactly at the threshold is normal.
    """
    attack = aggregate_byte_rate > threshold
    intensities = [c[2] for c in clustering.centroids]
    sharpness = [
        cluster_sharpness(clustering.centroids[i], clustering.stds[i])
        for i in range(clustering.k)
    ]
    if not attack:
        flagged = []
    elif clustering.k == 1:
        # No comparison set: the lone cluster is suspicious by default.
        flagged = [0]
    else:
        mean_intensity = float(np.mean(intensities))
        median_sharpness = median(sharpness)
        flagged = [
            i
            for i in range(clustering.k)
            if intensities[i] >= mean_intensity and sharpness[i] <= median_sharpness
        ]
    sources = {m for i in flagged for m in clustering.members[i]}
    return DetectionReport(attack, flagged, sorted(sources, key=ip_key), sharpness)
