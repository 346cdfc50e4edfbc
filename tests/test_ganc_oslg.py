"""Tests for the OSLG optimizer (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.static import StaticCoverage
from repro.exceptions import ConfigurationError
from repro.ganc.oslg import OSLGOptimizer
from repro.preferences.generalized import GeneralizedPreference


def _providers(train, seed: int = 0):
    def accuracy(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        block = np.stack(
            [np.random.default_rng(seed + int(user)).random(train.n_items) for user in users]
        )
        return block, block * 5.0

    return accuracy, train.user_items_batch


def test_oslg_requires_dynamic_coverage(tiny_dataset):
    with pytest.raises(ConfigurationError):
        OSLGOptimizer(StaticCoverage().fit(tiny_dataset), 5)  # type: ignore[arg-type]


def test_oslg_constructor_validation(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    with pytest.raises(ConfigurationError):
        OSLGOptimizer(coverage, 0)
    with pytest.raises(ConfigurationError):
        OSLGOptimizer(coverage, 5, sample_size=0)


def test_oslg_assigns_every_user(medium_split):
    train = medium_split.train
    coverage = DynamicCoverage().fit(train)
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)
    result = OSLGOptimizer(coverage, 5, sample_size=40, seed=0).run(theta, accuracy, exclusions)
    assert result.top_n.items.shape == (train.n_users, 5)
    for user in range(train.n_users):
        row = result.top_n.for_user(user)
        assert row.size == 5
        assert len(set(row.tolist())) == 5
        seen = set(train.user_items(user).tolist())
        assert seen.isdisjoint(set(row.tolist()))


def test_oslg_sample_is_sorted_by_increasing_theta(medium_split):
    train = medium_split.train
    coverage = DynamicCoverage().fit(train)
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)
    result = OSLGOptimizer(coverage, 5, sample_size=30, seed=1).run(theta, accuracy, exclusions)
    sampled_theta = theta[result.sampled_users]
    assert np.all(np.diff(sampled_theta) >= -1e-12)
    assert result.sampled_users.size == 30
    assert len(set(result.sampled_users.tolist())) == 30


def test_oslg_snapshots_are_monotone_increasing(medium_split):
    """Each sequential user adds N assignments to the coverage snapshot."""
    train = medium_split.train
    coverage = DynamicCoverage().fit(train)
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)
    n = 4
    result = OSLGOptimizer(coverage, n, sample_size=20, seed=2).run(theta, accuracy, exclusions)
    totals = result.snapshots.sum(axis=1)
    np.testing.assert_allclose(totals, n * np.arange(1, 21))


def test_oslg_sample_size_larger_than_population_is_full_pass(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    theta = np.array([0.1, 0.4, 0.6, 0.9])
    accuracy, exclusions = _providers(tiny_dataset)
    result = OSLGOptimizer(coverage, 2, sample_size=100, seed=0).run(theta, accuracy, exclusions)
    assert result.sampled_users.size == tiny_dataset.n_users


def test_oslg_is_deterministic_per_seed(medium_split):
    train = medium_split.train
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)
    a = OSLGOptimizer(DynamicCoverage().fit(train), 5, sample_size=25, seed=7).run(
        theta, accuracy, exclusions
    )
    b = OSLGOptimizer(DynamicCoverage().fit(train), 5, sample_size=25, seed=7).run(
        theta, accuracy, exclusions
    )
    np.testing.assert_array_equal(a.top_n.items, b.top_n.items)
    np.testing.assert_array_equal(a.sampled_users, b.sampled_users)


def test_oslg_empty_theta_is_rejected(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    accuracy, exclusions = _providers(tiny_dataset)
    with pytest.raises(ConfigurationError):
        OSLGOptimizer(coverage, 2, sample_size=2).run(np.array([]), accuracy, exclusions)


def test_larger_sample_size_increases_coverage(medium_split):
    """The Figure 3 trend: more sequential users -> better item-space coverage."""
    train = medium_split.train
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)

    def distinct_items(sample_size: int) -> int:
        coverage = DynamicCoverage().fit(train)
        result = OSLGOptimizer(coverage, 5, sample_size=sample_size, seed=0).run(
            theta, accuracy, exclusions
        )
        return len(
            {int(i) for u in range(train.n_users) for i in result.top_n.for_user(u)}
        )

    assert distinct_items(train.n_users) >= distinct_items(5)


@pytest.mark.parametrize("bad", ["silvermann", "", -0.5, 0, float("nan")])
def test_oslg_rejects_bad_bandwidth_at_construction(tiny_dataset, bad):
    coverage = DynamicCoverage().fit(tiny_dataset)
    with pytest.raises(ConfigurationError, match="bandwidth"):
        OSLGOptimizer(coverage, 2, bandwidth=bad)


def test_oslg_snapshot_log_is_compact_and_reconstructs(medium_split):
    """snapshots is a lazily densified view over O(S*N) recorded deltas."""
    train = medium_split.train
    theta = GeneralizedPreference().estimate(train).theta
    accuracy, exclusions = _providers(train)
    result = OSLGOptimizer(
        DynamicCoverage().fit(train), 4, sample_size=15, seed=5
    ).run(theta, accuracy, exclusions)
    log = result.snapshot_log
    assert log.n_steps == 15
    assert sum(d.size for d in log._deltas) <= 15 * 4
    dense = result.snapshots
    assert dense.shape == (15, train.n_items)
    assert np.array_equal(log.dense(), dense)
    np.testing.assert_array_equal(
        log.counts_at(log.n_steps - 1), dense[-1]
    )


def test_oslg_rejects_dynamic_coverage_subclasses(tiny_dataset):
    """A subclass may count assignments its own way, which the delta-updated
    snapshot log cannot reproduce, so OSLG refuses it by name."""

    class DoubleCountCoverage(DynamicCoverage):
        def update(self, items):
            super().update(items)
            super().update(items)  # counts every assignment twice

    coverage = DoubleCountCoverage().fit(tiny_dataset)
    with pytest.raises(ConfigurationError, match="DoubleCountCoverage"):
        OSLGOptimizer(coverage, 3, sample_size=10, seed=2)
