"""Re-ranker registrations in the unified component registry.

Re-rankers wrap a fitted accuracy recommender (their ``base``), so creation
looks like ``create("reranker", "pra", base=model, exchangeable_size=10)``.
The names follow the paper's Table IV labels.
"""

from __future__ import annotations

from repro.registry import create, register
from repro.rerankers.base import Reranker
from repro.rerankers.pra import PersonalizedRankingAdaptation
from repro.rerankers.rbt import RankingBasedTechnique
from repro.rerankers.resource_allocation import ResourceAllocation5D

register("reranker", "rbt")(RankingBasedTechnique)
register("reranker", "5d", aliases=("resource_allocation",))(ResourceAllocation5D)
register("reranker", "pra")(PersonalizedRankingAdaptation)


def make_reranker(name: str, **kwargs: object) -> Reranker:
    """Instantiate a re-ranker from its (case-insensitive) registry name.

    The ``base`` accuracy recommender must be supplied as a keyword argument;
    unknown hyper-parameters raise :class:`ConfigurationError`.
    """
    return create("reranker", name, **kwargs)
