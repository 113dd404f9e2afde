import numpy as np
import pytest

from sdnsim.analytics import FeatureVector, compare_clusterings, kmeans

from conftest import assignment


def vec(i, values):
    return FeatureVector(f"10.0.{i // 250}.{i % 250}", *values)


def blob_features(rng, center, count, std, start_index):
    points = rng.normal(loc=center, scale=std, size=(count, 4))
    return [vec(start_index + i, np.abs(points[i])) for i in range(count)]


def test_k1_centroid_is_componentwise_mean():
    features = [vec(0, (1, 2, 3, 4)), vec(1, (3, 2, 1, 0)), vec(2, (5, 5, 5, 5))]
    clustering = kmeans(features, 1)
    assert clustering.k == 1
    expected = np.mean([f.as_tuple() for f in features], axis=0)
    assert np.allclose(clustering.centroids[0], expected)
    assert clustering.members[0] == [f.client for f in features]


def test_two_well_separated_blobs_recovered_exactly():
    rng = np.random.default_rng(42)
    low = blob_features(rng, (10, 10, 2000, 10_000), 20, 1.0, 0)
    high = blob_features(rng, (100, 100, 20_000, 100_000), 10, 1.0, 100)
    clustering = kmeans(low + high, 2)
    assert clustering.k == 2
    labels = assignment(clustering)
    low_clients = {f.client for f in low}
    got_low = {c for c, idx in labels.items() if idx == labels[low[0].client]}
    assert got_low == low_clients
    # brute-force nearest-centroid oracle agrees with the assignment
    centroids = np.array(clustering.centroids)
    for f in low + high:
        dists = ((np.array(f.as_tuple()) - centroids) ** 2).sum(axis=1)
        assert int(dists.argmin()) == labels[f.client]


def test_wcss_never_increases():
    rng = np.random.default_rng(9)
    features = blob_features(rng, (50, 50, 5000, 25_000), 40, 15.0, 0)
    clustering = kmeans(features, 5)
    history = clustering.wcss_history
    assert len(history) >= 1
    assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


def test_identical_input_identical_output():
    rng = np.random.default_rng(3)
    features = blob_features(rng, (20, 20, 800, 4000), 25, 6.0, 0)
    a = kmeans(features, 4)
    b = kmeans(features, 4)
    assert assignment(a) == assignment(b)
    assert a.centroids == b.centroids


def test_uniform_scaling_keeps_the_assignment():
    rng = np.random.default_rng(17)
    features = blob_features(rng, (30, 30, 900, 9000), 30, 8.0, 0)
    scaled = [
        FeatureVector(f.client, *(2.0 * x for x in f.as_tuple())) for f in features
    ]
    assert assignment(kmeans(features, 3)) == assignment(kmeans(scaled, 3))


def test_no_empty_clusters_in_result():
    # many duplicate points force cluster collapse; k must shrink
    features = [vec(i, (1.0, 1.0, 1.0, 1.0)) for i in range(6)]
    features += [vec(10 + i, (9.0, 9.0, 9.0, 9.0)) for i in range(6)]
    clustering = kmeans(features, 5)
    assert clustering.k == 2
    assert all(len(members) > 0 for members in clustering.members)


def test_input_validation():
    with pytest.raises(ValueError):
        kmeans([], 1)
    features = [vec(0, (1, 1, 1, 1)), vec(1, (2, 2, 2, 2))]
    with pytest.raises(ValueError):
        kmeans(features, 3)
    with pytest.raises(ValueError):
        kmeans(features, 0)


# -- cluster history -------------------------------------------------------

def test_identical_clusterings_have_no_new_clusters():
    features = [vec(i, (i, i, 10.0 * i, 10.0 * i)) for i in range(6)]
    cur = kmeans(features, 2)
    assert compare_clusterings(cur, cur, match_radius=1.0) == []


def test_far_new_cluster_is_reported():
    rng = np.random.default_rng(8)
    old = blob_features(rng, (10, 10, 1000, 5000), 10, 1.0, 0)
    prev = kmeans(old, 1)
    new_blob = blob_features(rng, (500, 500, 90_000, 400_000), 5, 1.0, 50)
    cur = kmeans(old + new_blob, 2)
    fresh = compare_clusterings(prev, cur, match_radius=500.0)
    assert len(fresh) == 1
    attacker_cluster = assignment(cur)[new_blob[0].client]
    assert fresh == [attacker_cluster]


def test_compare_matches_all_pairs_oracle():
    rng = np.random.default_rng(13)
    prev_feats = blob_features(rng, (40, 40, 4000, 9000), 30, 20.0, 0)
    cur_feats = blob_features(rng, (60, 60, 6000, 12_000), 30, 25.0, 100)
    prev = kmeans(prev_feats, 4)
    cur = kmeans(cur_feats, 4)
    radius = 800.0
    got = compare_clusterings(prev, cur, radius)
    expected = []
    for i, c in enumerate(cur.centroids):
        dists = [
            np.linalg.norm(np.array(c) - np.array(p)) for p in prev.centroids
        ]
        if min(dists) > radius:
            expected.append(i)
    assert got == expected
