"""``sdnsim.analytics`` against the numpy formulation it replaced
(``numpy_analytics.py``): the same floats, bit for bit. The density and the
Gaussian split are bit for bit once both take ``exp`` from ``math``; against
numpy's own ``exp`` the density is within a few ulp."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy_analytics as oracle
from sdnsim import analytics
from sdnsim.analytics import FeatureVector

# Around numpy's pairwise-sum edges: under 8 values, one block of 128, and
# two halves of a split.
PAIRWISE_SIZES = [7, 8, 9, 127, 128, 129, 255, 256, 257]


def same(a, b) -> bool:
    """Equal bit for bit: repr tells -0.0 from 0.0 and prints every float
    exactly."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("n", PAIRWISE_SIZES)
def test_sums_means_and_stds_match_numpy(n):
    rng = np.random.default_rng(n)
    # Signs and magnitudes spread over nine decades, so the order of the
    # additions shows in the last bits.
    values = rng.choice([-1.0, 1.0], n) * rng.exponential(1.0, n) * 10.0 ** rng.integers(-3, 6, n)
    data = values.tolist()
    assert same(analytics.pairwise_sum(data), float(values.sum()))
    assert same(analytics.mean(data), float(values.mean()))
    assert same(analytics.std(data), float(values.std()))
    assert same(analytics.pairwise_sum([-0.0] * n), float(np.full(n, -0.0).sum()))
    rows = values.reshape(-1, 1) * rng.exponential(1.0, (n, 4))
    columns = list(zip(*rows.tolist()))
    assert same([analytics.mean(c, analytics.running_sum) for c in columns],
                rows.mean(axis=0).tolist())
    assert same([analytics.std(c, analytics.running_sum) for c in columns],
                rows.std(axis=0).tolist())
    start, stop = sorted(data[:2])
    assert same(analytics.linspace(start, stop, n), np.linspace(start, stop, n).tolist())


@st.composite
def feature_sets(draw, max_size=60):
    """Feature vectors drawn from a few distinct points, so that clients
    share vectors as homogeneous senders do, in an order that is not the
    address order."""
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    pool = rng.exponential(scale, (draw(st.integers(1, n)), 4))
    if draw(st.booleans()):  # packet counts over a poll interval
        pool = np.floor(pool) / 5.0
    points = pool[rng.integers(0, len(pool), n)]
    hosts = rng.permutation(n)
    return [FeatureVector(f"10.0.{h // 250}.{h % 250}", *point.tolist())
            for h, point in zip(hosts.tolist(), points)]


@settings(max_examples=300, deadline=None)
@given(features=feature_sets(), k=st.integers(1, 8))
def test_kmeans_matches_numpy_in_every_field(features, k):
    k = min(k, len(features))
    assert same(analytics.kmeans(features, k), oracle.kmeans(features, k))


@settings(max_examples=100, deadline=None)
@given(prev=feature_sets(20), cur=feature_sets(20), k=st.integers(1, 5),
       rate=st.floats(0.0, 1e7), threshold=st.floats(0.0, 1e7),
       radius=st.floats(0.0, 1e6))
def test_detect_and_compare_match_numpy(prev, cur, k, rate, threshold, radius):
    prev_c = analytics.kmeans(prev, min(k, len(prev)))
    cur_c = analytics.kmeans(cur, min(k, len(cur)))
    assert same(analytics.detect(rate, threshold, cur_c, "10.0.0.0"),
                oracle.detect(rate, threshold, cur_c, "10.0.0.0"))
    assert (analytics.compare_clusterings(prev_c, cur_c, radius)
            == oracle.compare_clusterings(prev_c, cur_c, radius))


def rate_sample(n, seed, scale, ties):
    rng = np.random.default_rng(seed)
    values = rng.exponential(scale, n)
    if ties:  # rates of homogeneous senders repeat exactly
        values = np.round(values[: max(2, n // 10)], 1)[rng.integers(0, max(2, n // 10), n)]
    return values


# numpy's exp and math.exp may differ in the last ulp of a kernel value,
# and the sums carry that into the density. The largest difference seen in
# 600 random samples of up to 2 000 values was 7 ulp.
DENSITY_ULPS = 64


def libm_exp(x):
    """numpy's ``exp`` computed by ``math.exp``, one element at a time."""
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    ties=st.booleans(),
    bandwidth=st.none() | st.floats(1e-3, 1e4),
)
@example(n=2, seed=0, scale=1.0, ties=False, bandwidth=1.0)
# About 2 200 terms: density blocks of three grid points.
@example(n=2000, seed=2, scale=1e6, ties=True, bandwidth=1e4)
# Two tied groups of 9: their density is symmetric about the grid's middle,
# and a KDE that adds count * exp per distinct value, not numpy's sum per
# element, finds no minimum there and returns one component, not two.
@example(n=18, seed=3, scale=1e6, ties=True, bandwidth=None)
def test_gaussian_split_matches_numpy(n, seed, scale, ties, bandwidth):
    values = rate_sample(n, seed, scale, ties)
    data = values.tolist()
    assert same(analytics.silverman_bandwidth(data), oracle.silverman_bandwidth(values))
    # Bit for bit once both take exp from the same library. With numpy's
    # own exp a density tie between grid points can break either way: a
    # two-value sample's density is symmetric about the grid's middle.
    with mock.patch.object(np, "exp", libm_exp):
        want = oracle.decompose_gaussian_1d(values, bandwidth)
        bw = bandwidth or oracle.silverman_bandwidth(values)
        oracle_libm = oracle.kernel_density(values, bw) if bw > 0 else None
    assert same(analytics.decompose_gaussian_1d(data, bandwidth), want)
    if oracle_libm is None:  # all values equal
        return
    grid, density = analytics.kernel_density(data, bw)
    assert same(grid, oracle_libm[0].tolist())
    assert same(density, oracle_libm[1].tolist())
    oracle_grid, oracle_density = oracle.kernel_density(values, bw)
    assert same(grid, oracle_grid.tolist())
    for got, want in zip(density, oracle_density.tolist()):
        assert abs(got - want) <= DENSITY_ULPS * math.ulp(want)
