import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kde_matrix
from sdnsim.analytics import (
    GRID_POINTS,
    KDE_BLOCK,
    decompose_gaussian_1d,
    kernel_density,
    silverman_bandwidth,
)


def test_single_gaussian_yields_one_component():
    rng = np.random.default_rng(1)
    values = rng.normal(20.0, 2.0, size=500)
    components = decompose_gaussian_1d(values)
    assert len(components) == 1
    (component,) = components
    # standard error of the mean is 2/sqrt(500) ~ 0.09; 0.5 is generous
    assert abs(component.mean - 20.0) <= 0.5
    assert component.weight == 1.0
    assert component.count == 500


def test_balanced_mixture_recovers_two_components():
    rng = np.random.default_rng(2)
    values = np.concatenate(
        [rng.normal(10.0, 1.0, size=500), rng.normal(30.0, 2.0, size=500)]
    )
    components = decompose_gaussian_1d(values)
    assert len(components) == 2
    lo, hi = components
    assert abs(lo.mean - 10.0) <= 1.0
    assert abs(hi.mean - 30.0) <= 3.0
    assert abs(lo.weight - 0.5) < 0.05 and abs(hi.weight - 0.5) < 0.05


def test_mixture_density_has_unique_interior_minimum_inside_expected_gap():
    """Brute-force scan of an independently computed smoothed density."""
    rng = np.random.default_rng(2)
    values = np.concatenate(
        [rng.normal(10.0, 1.0, size=500), rng.normal(30.0, 2.0, size=500)]
    )
    bw = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 3 * bw, values.max() + 3 * bw, 256)
    density = np.zeros_like(grid)
    for v in values:  # deliberately plain: independent of the module's KDE
        density += np.exp(-0.5 * ((grid - v) / bw) ** 2)
    minima = [
        float(grid[i])
        for i in range(1, len(grid) - 1)
        if density[i] < density[i - 1] and density[i] < density[i + 1]
    ]
    assert len(minima) == 1
    assert 15.0 < minima[0] < 25.0


def test_identical_values_give_one_degenerate_component():
    components = decompose_gaussian_1d([7.0] * 10, bandwidth=0.5)
    assert len(components) == 1
    (component,) = components
    assert component.degenerate
    assert component.mean == 7.0
    assert component.std == 0.5
    assert component.weight == 1.0


def test_weights_sum_to_one_and_means_increase():
    rng = np.random.default_rng(6)
    values = np.concatenate(
        [
            rng.normal(5.0, 1.0, size=300),
            rng.normal(25.0, 1.5, size=300),
            rng.normal(60.0, 3.0, size=400),
        ]
    )
    components = decompose_gaussian_1d(values)
    assert abs(sum(c.weight for c in components) - 1.0) <= 1e-9
    means = [c.mean for c in components]
    assert means == sorted(means)
    assert all(a < b for a, b in zip(means, means[1:]))
    assert sum(c.count for c in components) == len(values)


def test_lone_outlier_does_not_create_a_component():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(20.0, 2.0, size=400), [45.0]])
    components = decompose_gaussian_1d(values)
    assert len(components) == 1
    assert components[0].count == 401


def test_input_validation():
    with pytest.raises(ValueError):
        decompose_gaussian_1d([1.0])
    with pytest.raises(ValueError):
        decompose_gaussian_1d([1.0, 2.0], bandwidth=-1.0)


def test_silverman_bandwidth_formula():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    expected = 1.06 * values.std() * 4 ** (-0.2)
    assert silverman_bandwidth(values) == pytest.approx(expected)


# Sample sizes around those where the grid rows per block change: one
# block up to KDE_BLOCK / GRID_POINTS values, then blocks of 16, 8 and 5
# rows.
BLOCK_EDGES = [n + d for n in (KDE_BLOCK // GRID_POINTS, KDE_BLOCK // 16, KDE_BLOCK // 8,
                               KDE_BLOCK // 5) for d in (-1, 0, 1)] + [1999, 2000]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 2000) | st.sampled_from(BLOCK_EDGES),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    ties=st.booleans(),
    bandwidth=st.floats(1e-3, 1e4),
)
@example(n=2, seed=0, scale=1.0, ties=False, bandwidth=1.0)
@example(n=KDE_BLOCK // GRID_POINTS, seed=1, scale=1e3, ties=False, bandwidth=50.0)
@example(n=KDE_BLOCK // GRID_POINTS + 1, seed=1, scale=1e3, ties=False, bandwidth=50.0)
@example(n=2000, seed=2, scale=1e6, ties=True, bandwidth=1e4)
def test_blocked_density_matches_the_whole_matrix_bit_for_bit(n, seed, scale, ties, bandwidth):
    rng = np.random.default_rng(seed)
    values = rng.exponential(scale, n)
    if ties:  # rates of homogeneous senders repeat exactly
        values = np.round(values[: max(2, n // 10)], 1)[rng.integers(0, max(2, n // 10), n)]
    grid, density = kernel_density(values, bandwidth)
    oracle_grid, oracle_density = kde_matrix.kernel_density(values, bandwidth)
    assert grid.tobytes() == oracle_grid.tobytes()
    assert density.tobytes() == oracle_density.tobytes()
