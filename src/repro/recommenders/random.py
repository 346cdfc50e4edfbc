"""The ``Rand`` recommender: uniformly random suggestions.

Rand achieves the best possible coverage and high novelty but essentially zero
accuracy; the paper uses it as the coverage-extreme reference point in the
trade-off plots (Figure 6).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import RatingDataset
from repro.recommenders.base import Recommender
from repro.utils.rng import SeedLike, ensure_rng


class RandomRecommender(Recommender):
    """Assign every (user, item) pair an i.i.d. uniform score.

    Scores are drawn lazily per user from a deterministic per-user stream, so
    the same seed always reproduces the same recommendation sets regardless of
    the order users are queried in.
    """

    def __init__(self, *, seed: SeedLike = None) -> None:
        super().__init__()
        self._seed = seed
        self._base_seed: int | None = None

    def fit(self, train: RatingDataset) -> "RandomRecommender":
        """Record the item universe; no learning is involved."""
        rng = ensure_rng(self._seed)
        self._base_seed = int(rng.integers(0, 2**31 - 1))
        self._mark_fitted(train)
        return self

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """One uniform random row per user, drawn from the user's own stream.

        The per-user streams make the model order-independent and
        reproducible, and every row is the same whatever block it is
        scored in.
        """
        self._check_fitted()
        assert self._base_seed is not None
        users = self._resolve_users(users)
        n_items = self.train_data.n_items
        out = np.empty((users.size, n_items), dtype=np.float64)
        for row, user in enumerate(users):
            out[row] = np.random.default_rng(self._base_seed + int(user)).random(n_items)
        return out
