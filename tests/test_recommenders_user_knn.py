"""Tests for the user-based KNN recommender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.recommenders import make_recommender
from repro.recommenders.user_knn import UserKNN


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        UserKNN(k=0)
    with pytest.raises(ConfigurationError):
        UserKNN(shrinkage=-1)
    with pytest.raises(ConfigurationError):
        UserKNN(min_overlap=0)


def test_registry_builds_user_knn():
    assert isinstance(make_recommender("userknn", k=10), UserKNN)


def test_removed_dense_similarity_limit_is_rejected():
    """The dense container and its option are gone; naming it fails loudly."""
    with pytest.raises(ConfigurationError, match="dense_similarity_limit"):
        make_recommender("userknn", dense_similarity_limit=0)


def test_similarity_diagonal_is_zero(small_split):
    model = UserKNN(k=10).fit(small_split.train)
    assert np.allclose(model.similarity_.diagonal(), 0.0)


def test_similar_users_drive_predictions(tiny_dataset):
    model = UserKNN(k=3, shrinkage=0.0).fit(tiny_dataset)
    scores = model.predict_scores(0, np.arange(tiny_dataset.n_items))
    assert np.all(np.isfinite(scores))
    assert scores.shape == (6,)


def test_predictions_within_reasonable_rating_range(small_split):
    model = UserKNN(k=20).fit(small_split.train)
    for user in (0, 7, 31):
        scores = model.predict_scores(user, np.arange(small_split.train.n_items))
        assert scores.min() > -5.0 and scores.max() < 10.0


def test_recommendations_are_valid(small_split):
    model = UserKNN(k=20).fit(small_split.train)
    recs = model.recommend(3, 5)
    assert recs.size == 5
    assert len(set(recs.tolist())) == 5
    seen = set(small_split.train.user_items(3).tolist())
    assert seen.isdisjoint(set(recs.tolist()))


def test_cold_user_falls_back_to_mean():
    from repro.data.dataset import RatingDataset

    data = RatingDataset(
        np.array([0, 0, 1, 1]),
        np.array([0, 1, 0, 1]),
        np.array([5.0, 3.0, 4.0, 2.0]),
        n_users=3,
        n_items=2,
    )
    model = UserKNN(k=2).fit(data)
    scores = model.predict_scores(2, np.arange(2))
    np.testing.assert_allclose(scores, model.user_means_[2])


def test_min_overlap_filters_weak_neighbours(small_split):
    permissive = UserKNN(k=30, min_overlap=1).fit(small_split.train)
    strict = UserKNN(k=30, min_overlap=5).fit(small_split.train)
    assert strict.similarity_.count_nonzero() <= permissive.similarity_.count_nonzero()


def test_fit_is_deterministic(small_split):
    a = UserKNN(k=15).fit(small_split.train).recommend(0, 5)
    b = UserKNN(k=15).fit(small_split.train).recommend(0, 5)
    np.testing.assert_array_equal(a, b)
