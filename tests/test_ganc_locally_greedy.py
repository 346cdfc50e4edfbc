"""Tests for the exact Locally Greedy optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.static import StaticCoverage
from repro.exceptions import ConfigurationError
from repro.ganc.locally_greedy import LocallyGreedyOptimizer


def _providers(train):
    def accuracy(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        block = np.stack(
            [np.random.default_rng(100 + int(user)).random(train.n_items) for user in users]
        )
        return block, block * 5.0

    return accuracy, train.user_items_batch


def _constant(row: np.ndarray):
    """Accuracy provider giving every user of a block the same row."""

    def accuracy(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        block = np.tile(row, (np.asarray(users).size, 1))
        return block, block.copy()

    return accuracy


def _no_exclusions(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def test_constructor_validation(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    with pytest.raises(ConfigurationError):
        LocallyGreedyOptimizer(coverage, 0)


def test_run_assigns_n_items_to_every_user(small_split):
    train = small_split.train
    coverage = DynamicCoverage().fit(train)
    accuracy, exclusions = _providers(train)
    result = LocallyGreedyOptimizer(coverage, 5).run(
        np.full(train.n_users, 0.5), accuracy, exclusions
    )
    assert result.items.shape == (train.n_users, 5)
    for user in range(train.n_users):
        row = result.for_user(user)
        assert row.size == 5
        assert len(set(row.tolist())) == 5


def test_run_never_recommends_train_items(small_split):
    train = small_split.train
    coverage = DynamicCoverage().fit(train)
    accuracy, exclusions = _providers(train)
    result = LocallyGreedyOptimizer(coverage, 5).run(
        np.full(train.n_users, 0.7), accuracy, exclusions
    )
    for user in range(train.n_users):
        seen = set(train.user_items(user).tolist())
        assert seen.isdisjoint(set(result.for_user(user).tolist()))


def test_dynamic_state_is_updated_between_users(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    accuracy = _constant(np.zeros(tiny_dataset.n_items))
    exclusions = _no_exclusions
    LocallyGreedyOptimizer(coverage, 2).run(
        np.ones(tiny_dataset.n_users), accuracy, exclusions
    )
    # 4 users x 2 items each = 8 assignments recorded in the coverage state.
    assert coverage.frequencies.sum() == pytest.approx(8.0)


def test_pure_coverage_users_spread_across_items(tiny_dataset):
    """θ=1 users with zero accuracy signal should avoid re-recommending items."""
    coverage = DynamicCoverage().fit(tiny_dataset)
    accuracy = _constant(np.zeros(tiny_dataset.n_items))
    exclusions = _no_exclusions
    result = LocallyGreedyOptimizer(coverage, 1).run(
        np.ones(tiny_dataset.n_users), accuracy, exclusions
    )
    assigned = [int(result.for_user(u)[0]) for u in range(tiny_dataset.n_users)]
    # 4 users, 6 items, pure coverage: every user gets a distinct item.
    assert len(set(assigned)) == 4


def test_pure_accuracy_users_ignore_coverage(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    scores = np.linspace(1.0, 0.0, tiny_dataset.n_items)
    accuracy = _constant(scores)
    exclusions = _no_exclusions
    result = LocallyGreedyOptimizer(coverage, 1).run(
        np.zeros(tiny_dataset.n_users), accuracy, exclusions
    )
    # With θ=0 everybody takes the single highest-accuracy item.
    assigned = {int(result.for_user(u)[0]) for u in range(tiny_dataset.n_users)}
    assert assigned == {0}


def test_static_coverage_is_order_independent(small_split):
    train = small_split.train
    accuracy, exclusions = _providers(train)
    theta = np.full(train.n_users, 0.5)

    forward = LocallyGreedyOptimizer(StaticCoverage().fit(train), 5).run(
        theta, accuracy, exclusions
    )
    backward = LocallyGreedyOptimizer(StaticCoverage().fit(train), 5).run(
        theta, accuracy, exclusions, user_order=list(range(train.n_users))[::-1]
    )
    np.testing.assert_array_equal(forward.items, backward.items)


def test_user_order_must_be_a_permutation(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    accuracy = _constant(np.zeros(tiny_dataset.n_items))
    exclusions = _no_exclusions
    optimizer = LocallyGreedyOptimizer(coverage, 1)
    with pytest.raises(ConfigurationError):
        optimizer.run(np.ones(4), accuracy, exclusions, user_order=[0, 1, 1, 2])


def test_assign_user_with_all_items_excluded(tiny_dataset):
    coverage = DynamicCoverage().fit(tiny_dataset)
    optimizer = LocallyGreedyOptimizer(coverage, 3)
    items = optimizer.assign_user(
        0, 0.5, np.zeros(tiny_dataset.n_items), np.arange(tiny_dataset.n_items)
    )
    assert items.size == 0
