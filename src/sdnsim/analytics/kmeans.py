"""Lloyd's k-means over 4-D feature vectors, with deterministic seeding.

Initialization is farthest-point: the first center is the feature of the
canonically smallest client address, each next center the point maximizing
its distance to the chosen set (address order breaks ties). Runs are
therefore reproducible for a fixed feature order; no random seed is involved.
Clusters that lose all members during iteration are dropped and k shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..telemetry import ip_key
from .features import FeatureVector

MAX_ITER = 100


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

    final_k = len(centroids)
    means = []
    stds = []
    members: list[list[str]] = []
    for c in range(final_k):
        mask = labels == c
        means.append(tuple(float(v) for v in points[mask].mean(axis=0)))
        stds.append(tuple(float(v) for v in points[mask].std(axis=0)))
        members.append(sorted((clients[i] for i in np.flatnonzero(mask)), key=ip_key))
    assignment = {clients[i]: int(labels[i]) for i in range(len(clients))}
    return Clustering(final_k, means, assignment, members, stds, history)


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
