"""Accuracy-recommender registrations in the unified component registry.

The experiment harness and the pipeline API refer to recommenders with the
short names the paper uses (``Pop``, ``Rand``, ``RSVD``, ``PSVD10``,
``PSVD100``, ``CofiR100``).  This module is the single source of truth for
those names: it registers every model with :func:`repro.registry.register`,
together with the paper's experiment hyper-parameters and the rank-scaling
rule for surrogate datasets (``scale_hint`` multiplies the SVD-family latent
ranks so the factors-to-items ratio stays comparable to the full-size
datasets — a 100-factor PureSVD on a 300-item surrogate would otherwise
reconstruct the zero-imputed matrix almost exactly and lose all
generalization).

Names of the ``psvdNN`` / ``cofirNN`` families resolve dynamically for any
rank ``NN``, so ``make_recommender("psvd37")`` works without a dedicated
entry.
"""

from __future__ import annotations

from repro.recommenders.base import Recommender
from repro.recommenders.cofirank import CofiRank
from repro.recommenders.knn import ItemKNN
from repro.recommenders.popularity import MostPopular
from repro.recommenders.puresvd import PureSVD
from repro.recommenders.random import RandomRecommender
from repro.recommenders.rsvd import RSVD
from repro.recommenders.user_knn import UserKNN
from repro.registry import ComponentEntry, create, register, register_resolver

#: Hyper-parameters shared by the CofiRank family (Section V of the paper).
_COFIR_DEFAULTS = {"reg": 10.0, "n_iterations": 3}
#: RSVD with the paper's cross-validated training schedule (Table V).
_RSVD_DEFAULTS = {"n_factors": 20, "n_epochs": 30, "learning_rate": 0.02, "reg": 0.05}

register("recommender", "pop")(MostPopular)
register("recommender", "rand", defaults={"seed": 0})(RandomRecommender)
register("recommender", "rsvd", defaults=_RSVD_DEFAULTS)(RSVD)
register("recommender", "rsvdn", defaults={**_RSVD_DEFAULTS, "non_negative": True})(RSVD)
register(
    "recommender", "psvd",
    defaults={"n_factors": 100}, scaled_params={"n_factors": 3},
)(PureSVD)
register(
    "recommender", "psvd10",
    defaults={"n_factors": 10}, scaled_params={"n_factors": 3},
)(PureSVD)
register(
    "recommender", "psvd100",
    defaults={"n_factors": 100}, scaled_params={"n_factors": 3},
)(PureSVD)
register(
    "recommender", "cofir100",
    defaults={**_COFIR_DEFAULTS, "n_factors": 100}, scaled_params={"n_factors": 5},
)(CofiRank)
register("recommender", "itemknn", defaults={"k": 50})(ItemKNN)
register("recommender", "userknn", defaults={"k": 40})(UserKNN)


def _factor_family_resolver(name: str) -> ComponentEntry | None:
    """Resolve ``psvdNN`` / ``cofirNN`` names for arbitrary ranks ``NN``."""
    for prefix, cls, minimum, extra in (
        ("psvd", PureSVD, 3, {}),
        ("cofir", CofiRank, 5, _COFIR_DEFAULTS),
    ):
        suffix = name.removeprefix(prefix)
        if suffix != name and suffix.isdigit() and int(suffix) >= 1:
            return ComponentEntry(
                kind="recommender",
                name=name,
                cls=cls,
                defaults={**extra, "n_factors": int(suffix)},
                scaled_params={"n_factors": minimum},
            )
    return None


register_resolver("recommender", _factor_family_resolver)


def make_recommender(name: str, **kwargs: object) -> Recommender:
    """Instantiate a recommender from its (case-insensitive) registry name.

    Unknown hyper-parameters raise :class:`ConfigurationError`; the reserved
    ``seed`` / ``scale_hint`` kwargs behave as described in
    :mod:`repro.registry`.
    """
    return create("recommender", name, **kwargs)
