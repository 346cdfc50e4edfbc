"""Tests for the recommender registry."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.recommenders import (
    CofiRank,
    ItemKNN,
    MostPopular,
    PureSVD,
    RandomRecommender,
    RSVD,
    make_recommender,
)
from repro.registry import available


@pytest.mark.parametrize(
    "name, expected_type",
    [
        ("pop", MostPopular),
        ("rand", RandomRecommender),
        ("rsvd", RSVD),
        ("rsvdn", RSVD),
        ("psvd10", PureSVD),
        ("psvd100", PureSVD),
        ("cofir100", CofiRank),
        ("itemknn", ItemKNN),
    ],
)
def test_registry_builds_expected_types(name, expected_type):
    assert isinstance(make_recommender(name), expected_type)


def test_registry_is_case_insensitive():
    assert isinstance(make_recommender("PSVD100"), PureSVD)
    assert isinstance(make_recommender(" Pop "), MostPopular)


def test_registry_configures_variants():
    assert make_recommender("psvd10").n_factors == 10
    assert make_recommender("psvd100").n_factors == 100
    assert make_recommender("rsvdn").non_negative is True
    assert make_recommender("rsvd").non_negative is False


def test_registry_forwards_kwargs():
    model = make_recommender("rsvd", n_factors=7, n_epochs=3)
    assert model.n_factors == 7
    assert model.n_epochs == 3


def test_registry_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        make_recommender("definitely-not-a-model")


def test_registry_exposes_all_names():
    assert {"pop", "rand", "rsvd", "psvd10", "psvd100", "cofir100"} <= set(available("recommender"))


def test_unknown_hyperparameters_are_rejected():
    """Typos like n_factor= must fail loudly instead of being swallowed."""
    with pytest.raises(ConfigurationError, match="unexpected parameter"):
        make_recommender("rsvd", n_factor=7)
    with pytest.raises(ConfigurationError, match="unexpected parameter"):
        make_recommender("psvd100", factors=10)


def test_scale_hint_scales_svd_family_ranks():
    assert make_recommender("psvd100", scale_hint=0.2).n_factors == 20
    assert make_recommender("psvd10", scale_hint=0.01).n_factors == 3
    assert make_recommender("cofir100", scale_hint=0.01).n_factors == 5
