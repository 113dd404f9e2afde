"""Streaming analytics: features, clustering, decomposition, detection.

Features. Each client talking to the examined server gets a 4-dimensional
vector: packet and byte rates in both directions, all per-interval deltas
divided by the interval length. A direction with no traffic contributes
zeros.

Clustering. Lloyd's k-means over the feature vectors, with deterministic
farthest-point seeding: the first center is the feature of the canonically
smallest client address, each next center the point maximizing its distance
to the chosen set (address order breaks ties). Runs are therefore
reproducible for a fixed feature order; no random seed is involved.
Clusters that lose all members during iteration are dropped and k shrinks.

Decomposition. A Gaussian-kernel density estimate of a 1-D rate sample is
evaluated on a uniform grid; interior local minima of the density
(equivalently, points where the discrete second derivative is positive
between two modes) become segment boundaries. Each segment turns into one
component carrying the sample moments and the sample fraction of its
values. Segments holding less than ``MIN_WEIGHT`` of the sample are merged
into a neighbor across their weaker (higher-density) boundary, so a stray
outlier cannot manufacture a near-empty component.

Detection. An attack is declared when the aggregate byte rate toward the
target strictly exceeds the configured limit. Under attack, clusters that
are both intense (centroid upstream byte rate at or above the
across-cluster mean) and sharp (mean per-dimension coefficient of variation
at or below the across-cluster median) are flagged; their members become
the suspicious sources. Homogeneous senders produce near-zero coefficients
of variation, which is what separates a botnet's cluster from dispersed
legitimate users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .telemetry import DeltaRecord, ip_key

MAX_ITER = 100      # Lloyd iterations per k-means run
GRID_POINTS = 256   # density grid size
MIN_WEIGHT = 0.01   # smallest sample fraction a segment keeps on its own


@dataclass(frozen=True)
class FeatureVector:
    client: str
    pkt_rate_up: float
    pkt_rate_down: float
    byte_rate_up: float
    byte_rate_down: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pkt_rate_up, self.pkt_rate_down, self.byte_rate_up, self.byte_rate_down)


def build_features(
    deltas: list[DeltaRecord], server: str, interval: float
) -> list[FeatureVector]:
    """One vector per client with any flow to or from ``server``."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    up: dict[str, list[int]] = {}
    down: dict[str, list[int]] = {}
    for record in deltas:
        if record.dst == server:
            bucket = up.setdefault(record.src, [0, 0])
        elif record.src == server:
            bucket = down.setdefault(record.dst, [0, 0])
        else:
            continue
        bucket[0] += record.d_packets
        bucket[1] += record.d_bytes
    clients = sorted(set(up) | set(down), key=ip_key)
    vectors = []
    for client in clients:
        u = up.get(client, (0, 0))
        d = down.get(client, (0, 0))
        vectors.append(
            FeatureVector(
                client,
                u[0] / interval,
                d[0] / interval,
                u[1] / interval,
                d[1] / interval,
            )
        )
    return vectors


@dataclass
class Clustering:
    k: int
    centroids: list[tuple[float, float, float, float]]
    assignment: dict[str, int]
    members: list[list[str]]
    stds: list[tuple[float, float, float, float]]
    wcss_history: list[float] = field(default_factory=list)

    def sizes(self) -> list[int]:
        return [len(m) for m in self.members]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "centroids": [list(c) for c in self.centroids],
            "stds": [list(s) for s in self.stds],
            "sizes": self.sizes(),
            "members": self.members,
        }


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
    assignment = {clients[i]: int(labels[i]) for i in range(len(clients))}
    return Clustering(len(centroids), means, assignment, members, stds, history)


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


@dataclass
class DetectionReport:
    target: str
    aggregate_byte_rate: float
    threshold: float
    attack: bool
    suspicious_clusters: list[int] = field(default_factory=list)
    suspicious_sources: list[str] = field(default_factory=list)
    rationale: dict = field(default_factory=dict)


def cluster_sharpness(centroid, std) -> float:
    """Mean coefficient of variation over dimensions with nonzero centroid."""
    ratios = [s / c for c, s in zip(centroid, std) if c != 0.0]
    if not ratios:
        return 0.0
    return float(sum(ratios) / len(ratios))


def median(values: list[float]) -> float:
    """The median as ``numpy.median`` computes it: the mean of the middle
    value, or of the two middle values, summed from 0.0 (so a middle -0.0
    comes back as 0.0). ``numpy.median`` imports ``numpy.ma``, about 14 ms
    of start-up."""
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[(n - 1) // 2 : n // 2 + 1]
    total = 0.0
    for value in middle:
        total += value
    return total / len(middle)


def detect(
    aggregate_byte_rate: float,
    threshold: float,
    clustering: Clustering,
    target: str = "",
) -> DetectionReport:
    """Build the verdict for one poll interval.

    The volume check is strict: a rate exactly at the threshold is normal.
    """
    attack = aggregate_byte_rate > threshold
    report = DetectionReport(target, aggregate_byte_rate, threshold, attack)

    intensities = [c[2] for c in clustering.centroids]
    sharpness = [
        cluster_sharpness(clustering.centroids[i], clustering.stds[i])
        for i in range(clustering.k)
    ]
    report.rationale = {
        "clusters": [
            {
                "index": i,
                "size": len(clustering.members[i]),
                "intensity": intensities[i],
                "sharpness": sharpness[i],
                "flagged": False,
            }
            for i in range(clustering.k)
        ],
        "low_confidence": False,
    }
    if not attack:
        return report

    if clustering.k == 1:
        # No comparison set: the lone cluster is suspicious by default.
        flagged = [0]
        report.rationale["low_confidence"] = True
    else:
        mean_intensity = float(np.mean(intensities))
        median_sharpness = median(sharpness)
        flagged = [
            i
            for i in range(clustering.k)
            if intensities[i] >= mean_intensity and sharpness[i] <= median_sharpness
        ]

    for i in flagged:
        report.rationale["clusters"][i]["flagged"] = True
    report.suspicious_clusters = flagged
    sources: set[str] = set()
    for i in flagged:
        sources.update(clustering.members[i])
    report.suspicious_sources = sorted(sources, key=ip_key)
    return report
