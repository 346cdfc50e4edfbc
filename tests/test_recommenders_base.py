"""Tests for the shared Recommender interface and FittedTopN container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.recommenders.base import FittedTopN, Recommender
from repro.recommenders.popularity import MostPopular
from repro.recommenders.random import RandomRecommender
from repro.recommenders.registry import make_recommender


def test_unfitted_recommender_raises(tiny_dataset):
    model = MostPopular()
    with pytest.raises(NotFittedError):
        model.recommend(0, 3)
    with pytest.raises(NotFittedError):
        model.score_all_items(0)
    assert not model.is_fitted


def test_fit_returns_self(tiny_dataset):
    model = MostPopular()
    assert model.fit(tiny_dataset) is model
    assert model.is_fitted
    assert model.train_data is tiny_dataset


def test_recommend_excludes_train_items(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    for user in range(tiny_dataset.n_users):
        recs = model.recommend(user, 3)
        seen = set(tiny_dataset.user_items(user).tolist())
        assert seen.isdisjoint(set(recs.tolist()))


def test_recommend_respects_n(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    assert model.recommend(0, 2).size == 2
    # User 0 has rated 3 of 6 items, so at most 3 candidates remain.
    assert model.recommend(0, 10).size == 3


def test_recommend_rejects_bad_n(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    with pytest.raises(ConfigurationError):
        model.recommend(0, 0)


def test_recommend_with_custom_exclusions(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    recs = model.recommend(0, 6, exclude_items=np.array([], dtype=np.int64))
    assert recs.size == 6  # nothing excluded


def test_recommend_all_shape_and_content(tiny_dataset):
    model = MostPopular().fit(tiny_dataset)
    top = model.recommend_all(2)
    assert top.items.shape == (4, 2)
    assert top.n_users == 4
    assert top.n == 2
    for user in range(4):
        row = top.for_user(user)
        assert row.size == 2
        assert len(set(row.tolist())) == row.size


def test_recommendations_have_no_duplicates(small_split):
    model = RandomRecommender(seed=0).fit(small_split.train)
    top = model.recommend_all(10)
    for user in range(top.n_users):
        row = top.for_user(user)
        assert len(set(row.tolist())) == row.size


def test_unit_scores_are_in_unit_interval(tiny_dataset):
    model = RandomRecommender(seed=0).fit(tiny_dataset)
    scores = model.unit_scores(0, 3)
    assert scores.shape == (tiny_dataset.n_items,)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_fitted_topn_as_dict_drops_padding():
    top = FittedTopN(items=np.array([[1, 2, -1], [3, -1, -1]]))
    mapping = top.as_dict()
    np.testing.assert_array_equal(mapping[0], [1, 2])
    np.testing.assert_array_equal(mapping[1], [3])


def test_fitted_topn_rejects_1d_array():
    with pytest.raises(ConfigurationError):
        FittedTopN(items=np.array([1, 2, 3]))


def test_subclass_must_implement_predict_matrix():
    """``predict_matrix`` is the one abstract scoring method."""

    class PerUserOnly(Recommender):
        def fit(self, train):
            self._mark_fitted(train)
            return self

        def predict_scores(self, user, items):
            return np.zeros(np.asarray(items).size)

    with pytest.raises(TypeError, match="predict_matrix"):
        PerUserOnly()


@pytest.mark.parametrize("name", ["pop", "rand", "itemknn", "userknn"])
def test_score_views_slice_predict_matrix(small_split, name):
    """Per-user and per-pair views gather from ``predict_matrix`` rows."""
    model = make_recommender(name).fit(small_split.train)
    matrix = model.predict_matrix()
    items = np.array([5, 0, 5, 17], dtype=np.int64)
    assert np.array_equal(model.predict_scores(3, items), matrix[3, items])
    test = small_split.test
    for block_size in (None, 1, 7):
        pairs = model.predict_pairs(
            test.user_indices, test.item_indices, block_size=block_size
        )
        assert np.array_equal(pairs, matrix[test.user_indices, test.item_indices])
    assert model.predict_pairs(np.array([4, 2, 4]), np.array([1, 1, 1])).tolist() == [
        matrix[4, 1], matrix[2, 1], matrix[4, 1]
    ]
    assert model.predict_pairs(np.empty(0), np.empty(0)).shape == (0,)
