"""Tests for the submodular objective helpers and approximation bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.ganc.submodular import (
    brute_force_best_collection,
    collection_value,
    dynamic_coverage_value,
)


def _pair(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """An ``(a, raw)`` accuracy pair whose raw block is a copy of ``a``."""
    block = np.stack(rows)
    return block, block.copy()


def _no_exclusions(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _tiny_problem():
    """A 3-user, 4-item instance small enough for brute force."""
    rng = np.random.default_rng(0)
    theta = np.array([0.2, 0.5, 0.9])
    accuracy = {u: rng.random(4) for u in range(3)}
    return theta, accuracy


def test_collection_value_static_scores():
    theta = np.array([0.5, 0.0])
    accuracy = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    coverage = {0: np.array([0.0, 1.0]), 1: np.array([1.0, 0.0])}
    assignments = {0: np.array([0]), 1: np.array([1])}
    value = collection_value(assignments, theta, accuracy, coverage)
    # user 0: 0.5*1.0 + 0.5*0.0 ; user 1: 1.0*1.0 + 0.0
    assert value == pytest.approx(0.5 + 1.0)


def test_dynamic_coverage_value_diminishing_returns():
    theta = np.array([1.0, 1.0])
    accuracy = {0: np.zeros(3), 1: np.zeros(3)}
    same_item = {0: np.array([0]), 1: np.array([0])}
    different_items = {0: np.array([0]), 1: np.array([1])}
    value_same = dynamic_coverage_value(same_item, theta, accuracy)
    value_diff = dynamic_coverage_value(different_items, theta, accuracy)
    assert value_same == pytest.approx(1.0 + 1.0 / np.sqrt(2.0))
    assert value_diff == pytest.approx(2.0)
    assert value_diff > value_same


def test_dynamic_value_respects_user_order_weights():
    theta = np.array([0.0, 1.0])
    accuracy = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 0.0])}
    assignments = {0: np.array([0]), 1: np.array([0])}
    # user 0 first: gets accuracy 1.0; user 1 second: coverage 1/sqrt(2).
    first_then_second = dynamic_coverage_value(assignments, theta, accuracy, user_order=[0, 1])
    # Reversed order: user 1 takes the full coverage gain of item 0.
    second_then_first = dynamic_coverage_value(assignments, theta, accuracy, user_order=[1, 0])
    assert first_then_second == pytest.approx(1.0 + 1.0 / np.sqrt(2.0))
    assert second_then_first == pytest.approx(1.0 + 1.0)


def test_marginal_gains_are_non_increasing():
    """Empirical submodularity check of the Dyn coverage contribution."""
    theta = np.array([1.0])
    accuracy = {0: np.zeros(1)}
    gains = []
    for copies in range(1, 5):
        assignment = {0: np.zeros(copies, dtype=int)}
        # value of recommending the same item `copies` times (conceptually to
        # different slots); marginal gain = value(k) - value(k-1).
        value = dynamic_coverage_value(assignment, theta, accuracy)
        gains.append(value)
    marginals = np.diff([0.0] + gains)
    assert np.all(np.diff(marginals) < 0)


def test_brute_force_matches_manual_optimum():
    theta = np.array([0.0, 1.0])
    accuracy = {0: np.array([0.9, 0.1, 0.0]), 1: np.array([0.0, 0.0, 0.0])}
    best, value = brute_force_best_collection(2, 3, 1, theta, accuracy)
    # User 0 (pure accuracy) must take item 0; user 1 (pure coverage) is then
    # indifferent but any fresh item gives gain 1.0.
    assert best[0].tolist() == [0]
    assert value == pytest.approx(0.9 + 1.0)


def test_brute_force_validation():
    with pytest.raises(ConfigurationError):
        brute_force_best_collection(0, 3, 1, np.array([]), {})


def test_locally_greedy_achieves_half_of_optimum():
    """Fisher et al.'s 1/2 bound, checked exhaustively on tiny instances."""
    theta, accuracy = _tiny_problem()
    n_users, n_items, n = 3, 4, 2

    data = RatingDataset(
        np.array([0, 1, 2]),
        np.array([0, 1, 2]),
        np.array([3.0, 3.0, 3.0]),
        n_users=n_users,
        n_items=n_items,
    )
    coverage = DynamicCoverage().fit(data)
    optimizer = LocallyGreedyOptimizer(coverage, n)
    greedy = optimizer.run(
        theta,
        lambda users: _pair([accuracy[int(u)] for u in users]),
        _no_exclusions,
        n_users=n_users,
    )
    greedy_assignment = {u: greedy.for_user(u) for u in range(n_users)}
    greedy_value = dynamic_coverage_value(greedy_assignment, theta, accuracy)

    _, optimal_value = brute_force_best_collection(n_users, n_items, n, theta, accuracy)
    assert greedy_value >= 0.5 * optimal_value - 1e-9
    assert greedy_value <= optimal_value + 1e-9


def test_locally_greedy_half_bound_across_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(5):
        n_users, n_items, n = 3, 4, 1
        theta = rng.random(n_users)
        accuracy = {u: rng.random(n_items) for u in range(n_users)}
        data = RatingDataset(
            np.arange(n_users),
            np.zeros(n_users, dtype=int),
            np.full(n_users, 3.0),
            n_users=n_users,
            n_items=n_items,
        )
        coverage = DynamicCoverage().fit(data)
        greedy = LocallyGreedyOptimizer(coverage, n).run(
            theta,
            lambda users: _pair([accuracy[int(u)] for u in users]),
            _no_exclusions,
            n_users=n_users,
        )
        greedy_value = dynamic_coverage_value(
            {u: greedy.for_user(u) for u in range(n_users)}, theta, accuracy
        )
        _, optimal = brute_force_best_collection(n_users, n_items, n, theta, accuracy)
        assert greedy_value >= 0.5 * optimal - 1e-9


def test_dynamic_coverage_value_padding_does_not_alias_real_items():
    """-1 padding entries must count in their own bucket, not alias the last
    item's frequency (regression: an array-indexed replay did exactly that)."""
    theta = np.array([0.5, 0.5])
    accuracy = {0: np.array([0.0, 0.0, 1.0]), 1: np.array([0.0, 0.0, 1.0])}
    padded = dynamic_coverage_value(
        {0: np.array([2]), 1: np.array([2, -1])}, theta, accuracy
    )
    # item 2 assigned twice (gains 1 + 1/sqrt(2)), the -1 sentinel once
    # (gain 1, plus it reads accuracy[-1] == accuracy[2] — dict semantics).
    expected = (
        0.5 * 1.0 + 0.5 * 1.0            # user 0: acc + first assignment of item 2
        + 0.5 * 2.0                       # user 1 accuracy: items 2 and -1 both read 1.0
        + 0.5 / np.sqrt(2.0)              # second assignment of item 2
        + 0.5 * 1.0                       # first assignment of the -1 bucket
    )
    assert padded == pytest.approx(expected)
