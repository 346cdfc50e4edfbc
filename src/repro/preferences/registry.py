"""Preference-model registrations in the unified component registry.

The experiment harness refers to preference models by the symbols the paper
uses in Figure 5 (``thetaA``, ``thetaN``, ``thetaT``, ``thetaG``, ``thetaR``,
``thetaC``); the long-form names are registered as aliases.
"""

from __future__ import annotations

from repro.preferences.base import PreferenceModel
from repro.preferences.generalized import GeneralizedPreference
from repro.preferences.simple import (
    ActivityPreference,
    ConstantPreference,
    NormalizedLongTailPreference,
    RandomPreference,
    TfidfPreference,
)
from repro.registry import create, register

register("preference", "thetaa", aliases=("activity",))(ActivityPreference)
register("preference", "thetan", aliases=("long_tail_fraction",))(NormalizedLongTailPreference)
register("preference", "thetat", aliases=("tfidf",))(TfidfPreference)
register("preference", "thetag", aliases=("generalized",))(GeneralizedPreference)
register("preference", "thetar", aliases=("random",))(RandomPreference)
register("preference", "thetac", aliases=("constant",))(ConstantPreference)


def make_preference_model(name: str, **kwargs: object) -> PreferenceModel:
    """Instantiate a preference model from its (case-insensitive) name.

    The paper's ``θ`` spelling (``θG`` → ``thetag``) is normalized by the
    registry itself.  Unknown hyper-parameters raise
    :class:`ConfigurationError`; the reserved ``seed`` kwarg is threaded to
    θR and dropped for the seedless estimators.
    """
    return create("preference", name, **kwargs)
