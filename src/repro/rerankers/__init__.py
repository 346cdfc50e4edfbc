"""Re-ranking baselines the paper compares GANC against (Section IV-A).

* :class:`~repro.rerankers.rbt.RankingBasedTechnique` — RBT (Adomavicius &
  Kwon, TKDE 2012): re-rank the highly predicted head of a rating-prediction
  model by item popularity (Pop criterion) or item average rating (Avg
  criterion) to improve aggregate diversity.
* :class:`~repro.rerankers.resource_allocation.ResourceAllocation5D` — the 5D
  resource-allocation re-ranker (Ho, Chiang, Hsu, WSDM 2014) with its
  accuracy-filtering (A) and rank-by-rankings (RR) variants.
* :class:`~repro.rerankers.pra.PersonalizedRankingAdaptation` — PRA (Jugovac,
  Jannach, Lerche, 2017): greedy item swaps that adapt each user's top-N set
  toward their estimated novelty tendency.
"""

from repro.rerankers.base import Reranker
from repro.rerankers.rbt import RankingBasedTechnique
from repro.rerankers.resource_allocation import ResourceAllocation5D
from repro.rerankers.pra import PersonalizedRankingAdaptation
from repro.rerankers.registry import make_reranker

__all__ = [
    "Reranker",
    "RankingBasedTechnique",
    "ResourceAllocation5D",
    "PersonalizedRankingAdaptation",
    "make_reranker",
]
