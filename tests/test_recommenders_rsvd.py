"""Tests for the RSVD (SGD matrix factorization) recommender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.rsvd import RSVD


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        RSVD(n_factors=0)
    with pytest.raises(ConfigurationError):
        RSVD(n_epochs=0)
    with pytest.raises(ConfigurationError):
        RSVD(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        RSVD(reg=-0.1)
    with pytest.raises(ConfigurationError):
        RSVD(batch_size=0)


def test_training_reduces_rmse(small_split):
    model = RSVD(n_factors=8, n_epochs=15, learning_rate=0.02, reg=0.02, seed=0)
    model.fit(small_split.train)
    history = model.history_.epoch_rmse
    assert len(history) == 15
    assert history[-1] < history[0]
    assert history[-1] < 1.5


def test_predictions_are_finite_and_reasonable(small_split):
    model = RSVD(n_factors=8, n_epochs=20, learning_rate=0.02, reg=0.02, seed=0)
    model.fit(small_split.train)
    preds = model.score_all_items(0)
    assert np.all(np.isfinite(preds))
    assert preds.max() < 10.0 and preds.min() > -5.0


def test_fit_is_deterministic_per_seed(small_split):
    a = RSVD(n_factors=6, n_epochs=5, seed=4).fit(small_split.train)
    b = RSVD(n_factors=6, n_epochs=5, seed=4).fit(small_split.train)
    np.testing.assert_allclose(a.user_factors_, b.user_factors_)
    c = RSVD(n_factors=6, n_epochs=5, seed=5).fit(small_split.train)
    assert not np.allclose(a.user_factors_, c.user_factors_)


def test_biased_variant_uses_global_mean(small_split):
    plain = RSVD(n_factors=4, n_epochs=3, seed=0).fit(small_split.train)
    biased = RSVD(n_factors=4, n_epochs=3, use_biases=True, seed=0).fit(small_split.train)
    assert plain.global_mean_ == 0.0
    assert biased.global_mean_ == pytest.approx(small_split.train.mean_rating())
    assert np.any(biased.user_bias_ != 0.0)
    assert np.all(plain.user_bias_ == 0.0)


def test_non_negative_projection(small_split):
    model = RSVD(n_factors=6, n_epochs=8, non_negative=True, seed=0).fit(small_split.train)
    assert model.user_factors_.min() >= 0.0
    assert model.item_factors_.min() >= 0.0


def _pointwise(model, users, items):
    """The rating formula evaluated pair by pair from the fitted factors."""
    return (
        model.global_mean_
        + model.user_bias_[users]
        + model.item_bias_[items]
        + np.einsum("ij,ij->i", model.user_factors_[users], model.item_factors_[items])
    )


def test_predict_matrix_matches_pointwise(small_split):
    model = RSVD(n_factors=5, n_epochs=5, seed=0, use_biases=True).fit(small_split.train)
    matrix = model.predict_matrix()
    items = np.arange(small_split.train.n_items)
    np.testing.assert_allclose(
        matrix[3], _pointwise(model, np.full(items.size, 3), items), rtol=0.0, atol=1e-12
    )


def test_rmse_counts_every_rating_row_once(small_split):
    """Repeated (user, item) rows each count, in the dataset's own order."""
    model = RSVD(n_factors=5, n_epochs=5, seed=0).fit(small_split.train)
    test = small_split.test
    repeated = RatingDataset(
        np.concatenate([test.user_indices, test.user_indices[:40]]),
        np.concatenate([test.item_indices, test.item_indices[:40]]),
        np.concatenate([test.ratings, test.ratings[:40] + 1.0]),
        n_users=test.n_users,
        n_items=test.n_items,
    )
    err = repeated.ratings - _pointwise(model, repeated.user_indices, repeated.item_indices)
    np.testing.assert_allclose(
        model.rmse(repeated), np.sqrt(np.mean(err * err)), rtol=1e-12
    )
    assert model.rmse(repeated) != model.rmse(test)


def test_rmse_on_test_split(small_split):
    model = RSVD(n_factors=8, n_epochs=20, learning_rate=0.02, seed=0).fit(small_split.train)
    value = model.rmse(small_split.test)
    assert np.isfinite(value)
    assert 0.3 < value < 3.0


def test_better_fit_with_more_epochs(small_split):
    short = RSVD(n_factors=8, n_epochs=2, learning_rate=0.02, seed=0).fit(small_split.train)
    long = RSVD(n_factors=8, n_epochs=25, learning_rate=0.02, seed=0).fit(small_split.train)
    assert long.history_.final_rmse < short.history_.final_rmse


def test_recommendations_exclude_train_items(small_split):
    model = RSVD(n_factors=8, n_epochs=5, seed=0).fit(small_split.train)
    for user in (0, 5, 17):
        recs = model.recommend(user, 10)
        seen = set(small_split.train.user_items(user).tolist())
        assert seen.isdisjoint(set(recs.tolist()))


def test_batch_size_one_equals_classic_sgd_path(tiny_dataset):
    """Per-sample SGD (batch_size=1) still trains and improves."""
    model = RSVD(n_factors=3, n_epochs=10, batch_size=1, learning_rate=0.05, seed=0)
    model.fit(tiny_dataset)
    assert model.history_.epoch_rmse[-1] < model.history_.epoch_rmse[0]
