"""Test ranking protocols (Appendix C of the paper).

The protocol determines which items are ranked for each user at test time:

* **All unrated items** — rank every item not in the user's train set.  This
  is the protocol the paper uses for its main results, because it mirrors the
  real task of picking N items out of the whole catalogue and is far less
  popularity-biased.
* **Rated test-items** — rank only the user's observed test items.  This
  protocol strongly rewards popularity-biased algorithms; the appendix study
  (Figures 7-8) quantifies the difference.

Both protocols score users through ``predict_matrix`` blocks: the
all-unrated protocol ranks whole rows, the rated-test protocol gathers each
user's test items from their row and ranks only those.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender
from repro.utils.topn import top_n_indices


class RankingProtocol(ABC):
    """Produces the per-user top-N sets a metric suite should evaluate."""

    #: short name used in reports
    name: str = "protocol"

    @abstractmethod
    def top_n(
        self,
        recommender: Recommender,
        train: RatingDataset,
        test: RatingDataset,
        n: int,
        *,
        block_size: int | None = None,
        n_jobs: int = 1,
    ) -> dict[int, np.ndarray]:
        """Return ``{user: top-N item array}`` under this protocol.

        ``block_size`` bounds the number of users scored per matrix block;
        ``n_jobs`` threads the blocks fan out to.
        """


class AllUnratedItemsProtocol(RankingProtocol):
    """Rank all items outside the user's train set (the paper's main protocol)."""

    name = "all_unrated_items"

    def top_n(
        self,
        recommender: Recommender,
        train: RatingDataset,
        test: RatingDataset,
        n: int,
        *,
        block_size: int | None = None,
        n_jobs: int = 1,
    ) -> dict[int, np.ndarray]:
        """Delegate to the recommender's own blocked train-excluding top-N."""
        del test  # the candidate pool ignores test information by design
        result = recommender.recommend_all(n, block_size=block_size, n_jobs=n_jobs)
        return result.as_dict()


class RatedTestItemsProtocol(RankingProtocol):
    """Rank only each user's observed test items (the biased protocol)."""

    name = "rated_test_items"

    def top_n(
        self,
        recommender: Recommender,
        train: RatingDataset,
        test: RatingDataset,
        n: int,
        *,
        block_size: int | None = None,
        n_jobs: int = 1,
    ) -> dict[int, np.ndarray]:
        """Score each user's test items and keep the best ``n`` of them.

        The users with test items are scored in ``block_size`` blocks of
        :meth:`~repro.recommenders.base.Recommender.predict_matrix`, and
        each user's candidates are gathered from their row.  ``n_jobs`` is
        accepted for interface symmetry but unused.
        """
        del train, n_jobs
        users = np.arange(test.n_users, dtype=np.int64)
        rows, candidates = test.user_items_batch(users)
        scores = recommender.predict_pairs(rows, candidates, block_size=block_size)
        bounds = np.searchsorted(rows, np.arange(test.n_users + 1))
        out: dict[int, np.ndarray] = {}
        for user in users.tolist():
            start, stop = bounds[user], bounds[user + 1]
            top = top_n_indices(scores[start:stop], n)
            out[user] = candidates[start:stop][top]
        return out


def make_protocol(name: str) -> RankingProtocol:
    """Instantiate a ranking protocol by name."""
    key = name.strip().lower()
    if key in ("all_unrated_items", "all-unrated", "all"):
        return AllUnratedItemsProtocol()
    if key in ("rated_test_items", "rated-test", "rated"):
        return RatedTestItemsProtocol()
    raise ConfigurationError(
        f"unknown ranking protocol {name!r}; use 'all_unrated_items' or 'rated_test_items'"
    )
