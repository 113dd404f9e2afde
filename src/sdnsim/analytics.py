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
the suspicious sources. A lone cluster has nothing to be compared with and
is flagged by default. Homogeneous senders produce near-zero coefficients
of variation, which is what separates a botnet's cluster from dispersed
legitimate users. The report holds what detection decides: the verdict,
the flagged clusters, their members and each cluster's sharpness, computed
whether or not the limit is crossed. A cluster's size and intensity are the
clustering's (``len(members[i])``, ``centroids[i][2]``).

Arithmetic. The module needs the standard library alone, and every float it
returns equals what the numpy formulation it replaced returns (kept in
``tests/numpy_analytics.py`` as the test oracle). That takes numpy's
summation order, written out:

- A 1-D sum is ``pairwise_sum``: 0.0 plus numpy's pairwise sum, which keeps
  8 accumulators over blocks of up to 128 values and splits longer runs in
  halves rounded down to a multiple of 8. A mean divides the sum by the
  count; a std is the square root of the mean squared deviation.
- A column sum over rows (numpy's ``axis=0``) is ``running_sum``: the rows
  added in order, from 0.0.
- A squared distance between two 4-D points is
  ``0.0 + a*a + b*b + c*c + d*d`` over the coordinate differences.
- The density grid is ``linspace``: ``i*step + start``, the last point set
  to ``stop``. A grid point's density is ``pairwise_sum`` of its kernel
  values, replayed one addition at a time (``kernel_density``). A value's
  segment is ``bisect_right`` over the boundaries.

The builtin ``sum()`` is never used on floats: since Python 3.12 it
compensates its rounding, so its result would depend on the Python version.
``cli`` adds the client rates of the designed aggregate (and so of the
default threshold) with ``functools.reduce(operator.add, rates, 0)``: what
``sum()`` did before 3.12, down to the int 0 when there is no client.
Two results may still differ from numpy's in the last ulp. ``math.exp`` and
numpy's ``exp`` do (numpy picks a SIMD ``exp`` on AVX-512 hosts), so the
density is within a few ulp of numpy's; it only places the minima, where an
ulp counts only at an exact tie between neighbouring grid points. And
``compare_clusterings`` measures a distance as k-means does, not as numpy's
BLAS-backed ``linalg.norm``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from functools import reduce
from operator import add

from .telemetry import DeltaRecord
from .topology import ip_key

MAX_ITER = 100      # Lloyd iterations per k-means run
GRID_POINTS = 256   # density grid size
MIN_WEIGHT = 0.01   # smallest sample fraction a segment keeps on its own
PAIRWISE_BLOCK = 128  # longest run numpy's pairwise sum adds without splitting


def _pairwise(items: list, lo: int, n: int, plus):
    """numpy's pairwise sum of ``items[lo:lo + n]`` (n >= 1), adding with
    ``plus``: floats, or the KDE's term ids."""
    if n < 8:
        total = items[lo]  # numpy starts from -0.0, and -0.0 + x is x
        for i in range(lo + 1, lo + n):
            total = plus(total, items[i])
        return total
    if n <= PAIRWISE_BLOCK:
        r = items[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r = [plus(a, b) for a, b in zip(r, items[i:i + 8])]
        total = plus(plus(plus(r[0], r[1]), plus(r[2], r[3])),
                     plus(plus(r[4], r[5]), plus(r[6], r[7])))
        for i in range(end, lo + n):
            total = plus(total, items[i])
        return total
    half = n // 2
    half -= half % 8
    return plus(_pairwise(items, lo, half, plus), _pairwise(items, lo + half, n - half, plus))


def pairwise_sum(values: list[float]) -> float:
    """numpy's ``sum()`` of a 1-D float array."""
    return 0.0 + _pairwise(values, 0, len(values), add) if values else 0.0


def running_sum(values) -> float:
    """numpy's ``sum(axis=0)`` of one column: in row order, from 0.0."""
    return reduce(add, values, 0.0)


def mean(values, total=pairwise_sum) -> float:
    """numpy's ``mean()``: the ``total`` over the count."""
    return total(values) / len(values)


def std(values, total=pairwise_sum) -> float:
    """numpy's ``std()``: the root of the mean squared deviation."""
    m = mean(values, total)
    return math.sqrt(mean([(v - m) * (v - m) for v in values], total))


def linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy's ``linspace(start, stop, num)``, num >= 2."""
    step = (stop - start) / (num - 1)
    points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _sq_dist(p, q) -> float:
    a, b, c, d = p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]
    return 0.0 + a * a + b * b + c * c + d * d


class FeatureVector(namedtuple(
        "FeatureVector", "client pkt_rate_up pkt_rate_down byte_rate_up byte_rate_down")):
    __slots__ = ()

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self[1:]


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


# k clusters: each one's centroid, members and per-dimension stds, and the
# within-cluster sum of squares after each Lloyd iteration.
Clustering = namedtuple("Clustering", "k centroids members stds wcss_history", defaults=((),))


def kmeans(features: list[FeatureVector], k: int) -> Clustering:
    """Cluster feature vectors into at most k groups, in at most
    ``MAX_ITER`` Lloyd iterations."""
    if not features:
        raise ValueError("no features to cluster")
    if k < 1 or k > len(features):
        raise ValueError(f"k must be in [1, {len(features)}], got {k}")

    clients = [f.client for f in features]
    points = [tuple(map(float, f.as_tuple())) for f in features]
    # Distances depend on the point alone, so they are worked out once per
    # distinct feature vector (`fabric` has 1-3 among 159 clients); ties
    # are still broken per client.
    distinct: dict[tuple[float, ...], int] = {}
    ids = [distinct.setdefault(p, len(distinct)) for p in points]
    order = sorted(range(len(clients)), key=lambda i: ip_key(clients[i]))

    chosen = [order[0]]
    min_dist = [math.sqrt(_sq_dist(p, points[chosen[0]])) for p in distinct]
    while len(chosen) < k:
        best = max(min_dist)
        idx = next(i for i in order if min_dist[ids[i]] == best)
        chosen.append(idx)
        min_dist = [min(d, math.sqrt(_sq_dist(p, points[idx])))
                    for d, p in zip(min_dist, distinct)]

    centroids = [points[i] for i in chosen]
    labels: list[int] = []
    history: list[float] = []
    for _ in range(MAX_ITER):
        nearest = []  # (centroid index, squared distance) per distinct point
        for p in distinct:
            dists = [_sq_dist(p, c) for c in centroids]
            best = min(dists)
            nearest.append((dists.index(best), best))
        new_labels = [nearest[i][0] for i in ids]
        history.append(pairwise_sum([nearest[i][1] for i in ids]))
        if new_labels == labels:
            break
        # Empty clusters are dropped and the survivors renumbered in order.
        remap = {old: new for new, old in enumerate(sorted(set(new_labels)))}
        labels = [remap[c] for c in new_labels]
        groups: list[list[tuple[float, ...]]] = [[] for _ in remap]
        for p, c in zip(points, labels):
            groups[c].append(p)
        centroids = [tuple(mean(col, running_sum) for col in zip(*rows)) for rows in groups]

    # The first iteration always updates, so each centroid is now the mean
    # of its members under the final labels.
    stds = [tuple(std(col, running_sum) for col in zip(*rows)) for rows in groups]
    members: list[list[str]] = [[] for _ in centroids]
    for client, c in zip(clients, labels):
        members[c].append(client)
    members = [sorted(m, key=ip_key) for m in members]
    return Clustering(len(centroids), centroids, members, stds, history)


def compare_clusterings(
    prev: Clustering, cur: Clustering, match_radius: float
) -> list[int]:
    """Indices of current clusters with no previous centroid within radius.

    numpy's ``linalg.norm`` of one vector calls BLAS ``dot``, which may
    fuse a multiply-add, so only a distance within an ulp of the radius
    could be judged differently from the numpy formulation.
    """
    return [
        idx for idx, centroid in enumerate(cur.centroids)
        if not any(math.sqrt(_sq_dist(centroid, old)) <= match_radius
                   for old in prev.centroids)
    ]


GaussComponent = namedtuple("GaussComponent", "mean std weight count degenerate",
                            defaults=(False,))


def silverman_bandwidth(values) -> float:
    """Rule-of-thumb kernel bandwidth 1.06 * std * n^(-1/5)."""
    data = [float(v) for v in values]
    return 1.06 * std(data) * len(data) ** (-0.2)


def kernel_density(values, bandwidth: float) -> tuple[list[float], list[float]]:
    """Gaussian-kernel density on a uniform grid of ``GRID_POINTS`` points
    spanning the data +- 3 bw.

    A grid point's density is the pairwise sum of one kernel value per data
    element, in data order. The sum's additions are laid out once, each as
    a pair of earlier terms, and a pair that repeats (the same values added
    in the same order) is laid out once. They are then carried out one grid
    point at a time: one kernel value per distinct data value, then one
    addition per pair, each appended to the point's list of terms.
    """
    data = [float(v) for v in values]
    n = len(data)
    grid = linspace(min(data) - 3 * bandwidth, max(data) + 3 * bandwidth, GRID_POINTS)
    norm = n * bandwidth * math.sqrt(2 * math.pi)
    # Term ids: the distinct data values first, then the distinct additions.
    distinct: dict[float, int] = {}
    ids = [distinct.setdefault(v, len(distinct)) for v in data]
    additions: dict[tuple[int, int], int] = {}

    def plus(a: int, b: int) -> int:
        return additions.setdefault((a, b), len(distinct) + len(additions))

    total = _pairwise(ids, 0, n, plus)
    density = []
    for g in grid:
        terms = [math.exp(-0.5 * z * z) for z in [(g - v) / bandwidth for v in distinct]]
        for a, b in additions:
            terms.append(terms[a] + terms[b])
        density.append((0.0 + terms[total]) / norm)
    return grid, density


def density_minima(density: list[float]) -> list[int]:
    """Indices of strict interior local minima (positive second difference)."""
    return [
        i for i in range(1, len(density) - 1)
        if density[i] < density[i - 1] and density[i] < density[i + 1]
        and density[i - 1] - 2 * density[i] + density[i + 1] > 0
    ]


def decompose_gaussian_1d(values, bandwidth: float | None = None) -> list[GaussComponent]:
    """Split a sample into components separated at density minima.

    Components come back ordered by mean. A zero-variance sample (or
    segment) yields a degenerate component whose std is the bandwidth.

    A two-value sample's density is symmetric about the grid's middle,
    which falls between two grid points, so whether it splits rests on the
    last ulp of ``exp``.
    """
    data = [float(v) for v in values]
    n = len(data)
    if n < 2:
        raise ValueError("need at least two values")

    if min(data) == max(data):
        bw = bandwidth if bandwidth is not None and bandwidth > 0 else 1.0
        return [GaussComponent(data[0], bw, 1.0, n, degenerate=True)]

    if bandwidth is None:
        bandwidth = silverman_bandwidth(data)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")

    grid, density = kernel_density(data, bandwidth)
    minima = density_minima(density)
    boundaries = [grid[i] for i in minima]
    boundary_density = [density[i] for i in minima]

    # Drop boundaries producing undersized segments, weakest boundary first.
    while True:
        segment = [bisect_right(boundaries, v) for v in data]
        counts = [0] * (len(boundaries) + 1)
        for s in segment:
            counts[s] += 1
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

    # No segment is empty: with no boundary left one holds all n >= 2
    # values, and otherwise each holds at least MIN_WEIGHT * n > 0.
    components = []
    for s, count in enumerate(counts):
        part = [v for v, t in zip(data, segment) if t == s]
        spread = std(part)
        degenerate = spread == 0.0
        components.append(
            GaussComponent(
                mean(part),
                bandwidth if degenerate else spread,
                count / n,
                count,
                degenerate=degenerate,
            )
        )
    return components


# ``sharpness`` holds every cluster's, whether or not the gate opened.
DetectionReport = namedtuple(
    "DetectionReport", "attack suspicious_clusters suspicious_sources sharpness")


def cluster_sharpness(centroid, std) -> float:
    """Mean coefficient of variation over dimensions with nonzero centroid."""
    ratios = [s / c for c, s in zip(centroid, std) if c != 0.0]
    if not ratios:
        return 0.0
    return mean(ratios, running_sum)


def median(values: list[float]) -> float:
    """The median as ``numpy.median`` computes it: the mean of the middle
    value, or of the two middle values (so a middle -0.0 comes back as
    0.0)."""
    ordered = sorted(values)
    n = len(ordered)
    return mean(ordered[(n - 1) // 2 : n // 2 + 1])


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
        mean_intensity = mean(intensities)
        median_sharpness = median(sharpness)
        flagged = [
            i
            for i in range(clustering.k)
            if intensities[i] >= mean_intensity and sharpness[i] <= median_sharpness
        ]
    sources = {m for i in flagged for m in clustering.members[i]}
    return DetectionReport(attack, flagged, sorted(sources, key=ip_key), sharpness)
