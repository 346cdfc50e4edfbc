"""Accuracy recommenders: the base models GANC and the baselines re-rank.

Implemented from scratch on numpy/scipy:

* :class:`~repro.recommenders.popularity.MostPopular` — non-personalized
  popularity ranking (``Pop`` in the paper),
* :class:`~repro.recommenders.random.RandomRecommender` — uniform random
  suggestions (``Rand``),
* :class:`~repro.recommenders.rsvd.RSVD` — regularized matrix factorization
  trained with (mini-batch) SGD, optionally with non-negative factors
  (``RSVD`` / ``RSVDN``, the LIBMF models of the paper),
* :class:`~repro.recommenders.puresvd.PureSVD` — PureSVD latent factor model
  (missing entries imputed with zeros, truncated SVD),
* :class:`~repro.recommenders.cofirank.CofiRank` — collaborative ranking with
  regression (squared) loss, the ``CofiR`` variant the paper reports,
* :class:`~repro.recommenders.knn.ItemKNN` — neighbourhood model used as an
  additional baseline and in the examples.
"""

from repro.recommenders.base import Recommender, FittedTopN
from repro.recommenders.popularity import MostPopular
from repro.recommenders.random import RandomRecommender
from repro.recommenders.rsvd import RSVD
from repro.recommenders.puresvd import PureSVD
from repro.recommenders.cofirank import CofiRank
from repro.recommenders.knn import ItemKNN
from repro.recommenders.user_knn import UserKNN
from repro.recommenders.registry import make_recommender

__all__ = [
    "Recommender",
    "FittedTopN",
    "MostPopular",
    "RandomRecommender",
    "RSVD",
    "PureSVD",
    "CofiRank",
    "ItemKNN",
    "UserKNN",
    "make_recommender",
]
