"""Tests for PureSVD, CofiRank and ItemKNN."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.recommenders.cofirank import CofiRank
from repro.recommenders.knn import ItemKNN
from repro.recommenders.puresvd import PureSVD


# --------------------------------------------------------------------------- #
# PureSVD
# --------------------------------------------------------------------------- #
def test_puresvd_requires_positive_factors():
    with pytest.raises(ConfigurationError):
        PureSVD(n_factors=0)


def test_puresvd_caps_rank_at_matrix_size(tiny_dataset):
    model = PureSVD(n_factors=100).fit(tiny_dataset)
    assert model.effective_factors_ == min(tiny_dataset.n_users, tiny_dataset.n_items) - 1


def test_puresvd_scores_correlate_with_observed_ratings(small_split):
    model = PureSVD(n_factors=10).fit(small_split.train)
    train = small_split.train
    # Reconstruction should give higher scores to items the user rated highly
    # than to a random unrated item, on average.
    better = 0
    total = 0
    rng = np.random.default_rng(0)
    for user in range(0, train.n_users, 5):
        items, ratings = train.user_ratings(user)
        if items.size == 0:
            continue
        liked = items[np.argmax(ratings)]
        unrated = rng.choice(np.setdiff1d(np.arange(train.n_items), items))
        scores = model.predict_scores(user, np.array([liked, unrated]))
        better += int(scores[0] > scores[1])
        total += 1
    assert better / total > 0.7


def test_puresvd_more_factors_changes_recommendations(small_split):
    small = PureSVD(n_factors=3).fit(small_split.train).recommend_all(5)
    large = PureSVD(n_factors=30).fit(small_split.train).recommend_all(5)
    differences = sum(
        not np.array_equal(small.for_user(u), large.for_user(u))
        for u in range(small.n_users)
    )
    assert differences > 0


def test_puresvd_deterministic(small_split):
    a = PureSVD(n_factors=8).fit(small_split.train).recommend(0, 5)
    b = PureSVD(n_factors=8).fit(small_split.train).recommend(0, 5)
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------- #
# CofiRank (regression-loss collaborative ranking)
# --------------------------------------------------------------------------- #
def test_cofirank_validation():
    with pytest.raises(ConfigurationError):
        CofiRank(n_factors=0)
    with pytest.raises(ConfigurationError):
        CofiRank(reg=-1.0)
    with pytest.raises(ConfigurationError):
        CofiRank(n_iterations=0)


def test_cofirank_fits_observed_ratings(small_split):
    model = CofiRank(n_factors=10, reg=5.0, n_iterations=3, seed=0).fit(small_split.train)
    train = small_split.train
    preds = np.array(
        [
            model.predict_scores(int(u), np.asarray([i]))[0]
            for u, i in zip(train.user_indices[:200], train.item_indices[:200])
        ]
    )
    rmse = float(np.sqrt(np.mean((preds - train.ratings[:200]) ** 2)))
    assert rmse < 1.5


def test_cofirank_is_deterministic(small_split):
    a = CofiRank(n_factors=6, n_iterations=2, seed=1).fit(small_split.train).recommend(2, 5)
    b = CofiRank(n_factors=6, n_iterations=2, seed=1).fit(small_split.train).recommend(2, 5)
    np.testing.assert_array_equal(a, b)


def test_cofirank_handles_users_without_train_ratings():
    from repro.data.dataset import RatingDataset

    # User universe of 3 but user 2 has no ratings.
    data = RatingDataset(
        np.array([0, 0, 1, 1]),
        np.array([0, 1, 0, 2]),
        np.array([5.0, 3.0, 4.0, 2.0]),
        n_users=3,
        n_items=3,
    )
    model = CofiRank(n_factors=2, n_iterations=2, seed=0).fit(data)
    scores = model.predict_scores(2, np.arange(3))
    assert np.all(np.isfinite(scores))


# --------------------------------------------------------------------------- #
# ItemKNN
# --------------------------------------------------------------------------- #
def test_itemknn_validation():
    with pytest.raises(ConfigurationError):
        ItemKNN(k=0)
    with pytest.raises(ConfigurationError):
        ItemKNN(shrinkage=-1)


def test_itemknn_similarity_diagonal_is_zero(small_split):
    model = ItemKNN(k=20).fit(small_split.train)
    assert np.allclose(model.similarity_.diagonal(), 0.0)


def test_itemknn_scores_follow_user_history(tiny_dataset):
    model = ItemKNN(k=5, shrinkage=0.0).fit(tiny_dataset)
    scores = model.predict_scores(0, np.arange(tiny_dataset.n_items))
    assert np.all(np.isfinite(scores))


def test_itemknn_cold_user_gets_zero_scores():
    from repro.data.dataset import RatingDataset

    data = RatingDataset(
        np.array([0, 0, 1]),
        np.array([0, 1, 1]),
        np.array([4.0, 3.0, 5.0]),
        n_users=3,
        n_items=2,
    )
    model = ItemKNN(k=2).fit(data)
    np.testing.assert_allclose(model.predict_scores(2, np.arange(2)), [0.0, 0.0])


def test_itemknn_recommendations_are_valid(small_split):
    model = ItemKNN(k=30).fit(small_split.train)
    recs = model.recommend(1, 5)
    assert recs.size == 5
    assert len(set(recs.tolist())) == 5
