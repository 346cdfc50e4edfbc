"""Tests for the test ranking protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import RatingDataset
from repro.evaluation.protocols import (
    AllUnratedItemsProtocol,
    RatedTestItemsProtocol,
    make_protocol,
)
from repro.exceptions import ConfigurationError
from repro.metrics.report import evaluate_top_n
from repro.recommenders.knn import ItemKNN
from repro.recommenders.popularity import MostPopular
from repro.recommenders.random import RandomRecommender
from repro.utils.topn import top_n_indices


def test_make_protocol_names():
    assert isinstance(make_protocol("all_unrated_items"), AllUnratedItemsProtocol)
    assert isinstance(make_protocol("rated_test_items"), RatedTestItemsProtocol)
    assert isinstance(make_protocol("all"), AllUnratedItemsProtocol)
    with pytest.raises(ConfigurationError):
        make_protocol("something-else")


def test_all_unrated_protocol_excludes_train_items(small_split):
    model = MostPopular().fit(small_split.train)
    recs = AllUnratedItemsProtocol().top_n(model, small_split.train, small_split.test, 5)
    for user, items in recs.items():
        seen = set(small_split.train.user_items(user).tolist())
        assert seen.isdisjoint(set(items.tolist()))


def test_rated_test_protocol_only_ranks_test_items(small_split):
    model = MostPopular().fit(small_split.train)
    recs = RatedTestItemsProtocol().top_n(model, small_split.train, small_split.test, 5)
    for user, items in recs.items():
        test_items = set(small_split.test.user_items(user).tolist())
        assert set(items.tolist()).issubset(test_items)
        assert items.size <= 5


def test_rated_test_protocol_orders_by_model_score(small_split):
    model = MostPopular().fit(small_split.train)
    recs = RatedTestItemsProtocol().top_n(model, small_split.train, small_split.test, 3)
    for user in range(0, small_split.train.n_users, 9):
        items = recs[user]
        if items.size < 2:
            continue
        scores = model.predict_scores(user, items)
        assert np.all(np.diff(scores) <= 1e-9)


@pytest.mark.parametrize("block_size", [None, 1, 7])
def test_rated_test_protocol_ranks_predict_matrix_rows(small_split, block_size):
    """Each user's test items, ranked by their ``predict_matrix`` row (ties
    by candidate order), whatever the block size; user 0 has none."""
    model = ItemKNN(20).fit(small_split.train)
    full = small_split.test
    keep = full.user_indices != 0
    test = RatingDataset(
        full.user_indices[keep],
        full.item_indices[keep],
        full.ratings[keep],
        n_users=full.n_users,
        n_items=full.n_items,
    )
    recs = RatedTestItemsProtocol().top_n(
        model, small_split.train, test, 5, block_size=block_size
    )
    matrix = model.predict_matrix()
    assert set(recs) == set(range(test.n_users))
    for user in range(test.n_users):
        candidates = test.user_items(user)
        expected = candidates[top_n_indices(matrix[user, candidates], 5)]
        np.testing.assert_array_equal(recs[user], expected)
        assert recs[user].dtype == np.int64
    assert recs[0].size == 0


def test_rated_test_protocol_handles_users_without_test_items(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    # Use the train set as "test": every user has items, then empty test user.
    recs = RatedTestItemsProtocol().top_n(model, tiny_dataset, tiny_dataset, 2)
    assert set(recs) == set(range(tiny_dataset.n_users))


def test_rated_protocol_inflates_accuracy_even_for_random(small_split):
    """The appendix's bias argument: random suggestions look accurate when the
    candidate pool is restricted to the user's own test items."""
    model = RandomRecommender(seed=0).fit(small_split.train)
    all_unrated = AllUnratedItemsProtocol().top_n(model, small_split.train, small_split.test, 5)
    rated_only = RatedTestItemsProtocol().top_n(model, small_split.train, small_split.test, 5)
    report_all = evaluate_top_n(all_unrated, small_split.train, small_split.test, 5, algorithm="rand")
    report_rated = evaluate_top_n(rated_only, small_split.train, small_split.test, 5, algorithm="rand")
    assert report_rated.precision >= report_all.precision
    assert report_rated.recall >= report_all.recall
