"""Tests for the Rand / Stat / Dyn coverage recommenders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage import (
    DynamicCoverage,
    RandomCoverage,
    StaticCoverage,
    make_coverage,
)
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import available


def test_unfitted_coverage_raises():
    with pytest.raises(NotFittedError):
        _ = StaticCoverage().n_items


def test_random_coverage_scores_in_unit_interval(tiny_dataset):
    cov = RandomCoverage(seed=0).fit(tiny_dataset)
    scores = cov.scores(0)
    assert scores.shape == (tiny_dataset.n_items,)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_random_coverage_is_deterministic_per_seed(tiny_dataset):
    a = RandomCoverage(seed=1).fit(tiny_dataset).scores(2)
    b = RandomCoverage(seed=1).fit(tiny_dataset).scores(2)
    np.testing.assert_allclose(a, b)


def test_random_coverage_differs_between_users(tiny_dataset):
    cov = RandomCoverage(seed=0).fit(tiny_dataset)
    assert not np.allclose(cov.scores(0), cov.scores(1))


def test_random_coverage_is_not_dynamic(tiny_dataset):
    cov = RandomCoverage(seed=0).fit(tiny_dataset)
    assert not cov.is_dynamic
    before = cov.scores(0).copy()
    cov.update(np.array([0, 1]))
    np.testing.assert_allclose(cov.scores(0), before)


def test_static_coverage_formula(tiny_dataset):
    cov = StaticCoverage().fit(tiny_dataset)
    popularity = tiny_dataset.item_popularity()
    expected = 1.0 / np.sqrt(popularity + 1.0)
    np.testing.assert_allclose(cov.scores(0), expected)
    np.testing.assert_allclose(cov.scores(3), expected)  # same for every user


def test_static_coverage_prefers_unpopular_items(tiny_dataset):
    scores = StaticCoverage().fit(tiny_dataset).scores(0)
    assert scores[4] > scores[0]  # single-rating item beats the blockbuster


def test_dynamic_coverage_initial_scores_are_one(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    np.testing.assert_allclose(cov.scores(0), 1.0)


def test_dynamic_coverage_update_reduces_scores(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    cov.update(np.array([2, 2, 5]))
    scores = cov.scores(0)
    assert scores[2] == pytest.approx(1.0 / np.sqrt(3.0))
    assert scores[5] == pytest.approx(1.0 / np.sqrt(2.0))
    assert scores[0] == pytest.approx(1.0)


def test_dynamic_coverage_gain_has_diminishing_returns():
    gains = [DynamicCoverage.gain(f) for f in range(5)]
    assert all(a > b for a, b in zip(gains, gains[1:]))
    assert gains[0] == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        DynamicCoverage.gain(-1)


def test_dynamic_coverage_reset(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    cov.update(np.array([0, 1, 2]))
    cov.reset()
    np.testing.assert_allclose(cov.frequencies, 0.0)
    np.testing.assert_allclose(cov.scores(0), 1.0)


def test_dynamic_coverage_snapshot_roundtrip(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    cov.update(np.array([0, 0, 3]))
    snapshot = cov.frequencies
    cov.reset()
    cov.set_frequencies(snapshot)
    np.testing.assert_allclose(cov.frequencies, snapshot)


def test_dynamic_coverage_set_frequencies_validation(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    with pytest.raises(ConfigurationError):
        cov.set_frequencies(np.zeros(3))
    with pytest.raises(ConfigurationError):
        cov.set_frequencies(-np.ones(tiny_dataset.n_items))


def test_dynamic_coverage_is_dynamic(tiny_dataset):
    assert DynamicCoverage().fit(tiny_dataset).is_dynamic


def test_frequencies_returns_a_copy(tiny_dataset):
    cov = DynamicCoverage().fit(tiny_dataset)
    freq = cov.frequencies
    freq[0] = 100.0
    assert cov.frequencies[0] == 0.0


@pytest.mark.parametrize(
    "name, expected_type",
    [
        ("rand", RandomCoverage),
        ("random", RandomCoverage),
        ("stat", StaticCoverage),
        ("dyn", DynamicCoverage),
        ("Dynamic", DynamicCoverage),
    ],
)
def test_coverage_registry(name, expected_type):
    assert isinstance(make_coverage(name), expected_type)


def test_coverage_registry_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_coverage("nope")
    assert {"rand", "stat", "dyn"} <= set(available("coverage"))


def test_registry_rejects_unknown_hyperparameters():
    with pytest.raises(ConfigurationError, match="unexpected parameter"):
        make_coverage("rand", sead=3)


def test_registry_drops_seed_for_seedless_models():
    assert isinstance(make_coverage("dyn", seed=3), DynamicCoverage)
    assert isinstance(make_coverage("stat", seed=3), StaticCoverage)
