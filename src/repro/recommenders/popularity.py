"""The ``Pop`` (most popular) accuracy recommender.

Non-personalized: every user is suggested the most popular items they have not
rated yet.  For ranking tasks this model is a strong accuracy contender because
it exploits the popularity bias of the data, but it has low novelty and
coverage (Cremonesi et al., 2010; Vargas & Castells, 2014).

When used as the accuracy component of GANC, the paper defines the accuracy
score as binary membership: ``a(i) = 1`` if item ``i`` is inside the top-N set
Pop would suggest to the user, ``a(i) = 0`` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import RatingDataset
from repro.recommenders.base import Recommender


class MostPopular(Recommender):
    """Rank items by their train-set popularity ``f^R_i``.

    Ties are broken deterministically by item index so repeated runs produce
    identical recommendation sets.
    """

    supports_delta_refit = True

    def __init__(self) -> None:
        super().__init__()
        self._popularity: np.ndarray | None = None
        self._scores: np.ndarray | None = None

    def _rescore(self, n_items: int) -> None:
        # Deterministic tie-break: subtract a tiny index-based epsilon so equal
        # popularity resolves to the lower item index first.
        assert self._popularity is not None
        jitter = np.arange(n_items, dtype=np.float64) / (10.0 * max(n_items, 1))
        self._scores = self._popularity - jitter

    def fit(self, train: RatingDataset) -> "MostPopular":
        """Count item frequencies in ``train``."""
        self._popularity = train.item_popularity().astype(np.float64)
        self._rescore(train.n_items)
        self._mark_fitted(train)
        return self

    def delta_refit(self, train: RatingDataset) -> "MostPopular":
        """Add the appended interactions' counts to the fitted popularity.

        Bit-identical to a fresh :meth:`fit` on ``train``: popularity counts
        are integer-valued float64s, and adding 1.0 per delta interaction is
        exact regardless of order, so the delta-updated counts equal the
        from-scratch ``bincount``; the tie-break scores are recomputed in
        full (the jitter denominator depends on ``n_items``).
        """
        _, delta_items, _ = self._delta_interactions(train)
        assert self._popularity is not None
        self.delta_changed_state = bool(delta_items.size) or train.n_items != self._popularity.size
        popularity = np.zeros(train.n_items, dtype=np.float64)
        popularity[: self._popularity.size] = self._popularity
        np.add.at(popularity, delta_items, 1.0)
        self._popularity = popularity
        self._rescore(train.n_items)
        self._mark_fitted(train)
        return self

    @property
    def popularity(self) -> np.ndarray:
        """Item popularity counts learned at fit time."""
        self._check_fitted()
        assert self._popularity is not None
        return self._popularity

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """One identical popularity row per requested user."""
        self._check_fitted()
        users = self._resolve_users(users)
        assert self._scores is not None
        return np.tile(self._scores, (users.size, 1))

    def unit_scores_pair(
        self, users: np.ndarray | None, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Binary top-N membership rows, as the paper defines ``a(i)`` for Pop.

        The membership rows are :meth:`recommend_block`'s top-``n`` sets;
        ``raw`` is the popularity block they rank.
        """
        users = self._resolve_users(users)
        raw = self.predict_matrix(users)
        top = self.recommend_block(users, n)
        membership = np.zeros((users.size, self.train_data.n_items), dtype=np.float64)
        valid = top >= 0
        membership[np.nonzero(valid)[0], top[valid]] = 1.0
        return membership, raw
