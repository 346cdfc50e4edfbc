"""Common interface of all accuracy recommenders.

Every model has one scoring definition, and it is **batched**:

* ``predict_matrix(users)`` — the abstract method: raw model scores
  (predicted ratings, popularity counts, associations, ...) for every item,
  one row per requested user, computed with matrix products / broadcasting
  instead of per-user loops.
* ``unit_scores_pair(users, n)`` — the ``(a, raw)`` pair of one
  ``predict_matrix`` call: the raw block mapped onto ``[0, 1]`` (row-wise
  min-max normalization by default), used as the accuracy term ``a(i)`` of
  the GANC value function (Eq. III.1), plus the raw block itself, from which
  the optimizers read the stored scores of the items they choose.  The
  non-personalized ``Pop`` recommender overrides it with binary top-N
  membership, exactly as the paper specifies.  ``unit_scores_batch`` is its
  first element.
* ``score_all_items(user)`` / ``predict_scores(user, items)`` /
  ``unit_scores(user, n)`` slice one-row blocks, and
  ``predict_pairs(users, items)`` gathers ``(user, item)`` pairs from
  blocks; none of them computes a score of its own.

``recommend`` and ``recommend_all`` always exclude the user's train items so
that top-N sets follow the "all unrated items" protocol; ``recommend_all``
processes users in memory-bounded blocks (``O(block_size × |I|)`` peak) with
row-wise 2-D selection, and uses the canonical stable tie-breaking of
:mod:`repro.utils.topn` so batched and per-user results agree exactly.  Each
block is scored once: the raw scores of the chosen items come back with the
rows (:attr:`FittedTopN.scores`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel.executor import Executor, resolve_executor
from repro.parallel.tasks import TopNScoresTask
from repro.registry import ParamsMixin
from repro.utils.normalization import normalize_rows
from repro.utils.topn import iter_user_blocks, top_n_indices


@dataclass(frozen=True)
class FittedTopN:
    """Top-N sets for every user, as produced by :meth:`Recommender.recommend_all`.

    Attributes
    ----------
    items:
        Integer array of shape ``(n_users, n)``; row ``u`` holds the top-N
        item indices of user ``u`` in rank order.  Rows may contain ``-1``
        padding when a user has fewer than ``n`` candidates.
    scores:
        Float64 array of the same shape: the accuracy recommender's raw
        :meth:`Recommender.predict_matrix` scores of ``items``, ``NaN`` on
        ``-1`` padding, read from the blocks the ranking pass scored.
        ``None`` for collections built without a score pass (re-rankers).
    """

    items: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.items, dtype=np.int64)
        if arr.ndim != 2:
            raise ConfigurationError(f"top-N items must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "items", arr)
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            if scores.shape != arr.shape:
                raise ConfigurationError(
                    f"top-N scores must match the items' shape {arr.shape}, "
                    f"got {scores.shape}"
                )
            object.__setattr__(self, "scores", scores)

    @property
    def n_users(self) -> int:
        """Number of users covered by this collection."""
        return int(self.items.shape[0])

    @property
    def n(self) -> int:
        """Size of each top-N set."""
        return int(self.items.shape[1])

    def for_user(self, user: int) -> np.ndarray:
        """Valid (non-padding) recommendations of ``user`` in rank order."""
        row = self.items[user]
        return row[row >= 0]

    def as_dict(self) -> dict[int, np.ndarray]:
        """Return a ``{user: item array}`` mapping (drops padding)."""
        return {u: self.for_user(u) for u in range(self.n_users)}


class Recommender(ParamsMixin, ABC):
    """Abstract base class of all accuracy recommenders.

    Besides the scoring contract below, every recommender is introspectable:
    :meth:`~repro.registry.ParamsMixin.get_params` reports the constructor
    configuration and ``from_params`` rebuilds an unfitted clone, which is
    what makes pipeline specs round-trippable.
    """

    #: Whether :meth:`delta_refit` is implemented.  Models whose fitted state
    #: can absorb appended interactions exactly (bit-identical to a
    #: from-scratch fit) set this True; everything else keeps the full-refit
    #: fallback the streaming path (:mod:`repro.serving.update`) applies.
    supports_delta_refit: bool = False

    #: Set by every :meth:`delta_refit` implementation: whether the last
    #: delta refit changed any fitted state (as persisted by
    #: ``Pipeline.save``).  A pure cold-start delta — new users, no new
    #: interactions or items — leaves counts and similarities bitwise
    #: intact, which lets the streaming compile path
    #: (:mod:`repro.serving.update`) recompute only the arrivals' rows.
    #: The default is the conservative answer.
    delta_changed_state: bool = True

    def __init__(self) -> None:
        self._train: RatingDataset | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @abstractmethod
    def fit(self, train: RatingDataset) -> "Recommender":
        """Fit the model on the train interactions and return ``self``."""

    def delta_refit(self, train: RatingDataset) -> "Recommender":
        """Absorb the interactions appended to the current train data.

        ``train`` must be an *extension* of :attr:`train_data` — the dataset
        returned by :meth:`RatingDataset.extend` (or
        :func:`repro.data.incremental.extend_split`), whose interaction
        arrays start with the fitted train's arrays.  The contract is
        strict: after ``delta_refit(train)`` every scoring path must produce
        exactly the bytes a fresh ``fit(train)`` would.  The base class does
        not support it; callers should fall back to :meth:`fit` on
        :class:`~repro.exceptions.ConfigurationError`.
        """
        raise ConfigurationError(
            f"{type(self).__name__} does not support delta refits; call fit()"
        )

    def _delta_interactions(
        self, train: RatingDataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate the extension contract and return the appended triples."""
        self._check_fitted()
        old = self.train_data
        if (
            train.n_users < old.n_users
            or train.n_items < old.n_items
            or train.n_ratings < old.n_ratings
        ):
            raise ConfigurationError(
                "delta_refit needs an extension of the fitted train data; got a "
                f"{train.n_users}x{train.n_items} dataset with {train.n_ratings} "
                f"ratings vs the fitted {old.n_users}x{old.n_items} with "
                f"{old.n_ratings}"
            )
        k = old.n_ratings
        if not (
            np.array_equal(train.user_indices[:k], old.user_indices)
            and np.array_equal(train.item_indices[:k], old.item_indices)
            and np.array_equal(train.ratings[:k], old.ratings)
        ):
            raise ConfigurationError(
                "delta_refit needs a dataset created by extend() on the fitted "
                "train data (the fitted interactions must be a prefix); refit "
                "from scratch instead"
            )
        return (
            train.user_indices[k:],
            train.item_indices[k:],
            train.ratings[k:],
        )

    def _mark_fitted(self, train: RatingDataset) -> None:
        self._train = train

    @property
    def train_data(self) -> RatingDataset:
        """The train dataset this model was fitted on."""
        self._check_fitted()
        assert self._train is not None
        return self._train

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._train is not None

    def _check_fitted(self) -> None:
        if self._train is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before it can be used"
            )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _resolve_users(self, users: np.ndarray | None) -> np.ndarray:
        """Normalize a ``users`` argument (``None`` means every user)."""
        if users is None:
            return np.arange(self.train_data.n_users, dtype=np.int64)
        return np.atleast_1d(np.asarray(users, dtype=np.int64))

    @abstractmethod
    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Raw score rows for a block of users, shape ``(len(users), n_items)``.

        Higher is better.  ``users=None`` scores every user.  The returned
        array is always a fresh, writable float64 block.  This is the one
        scoring definition; every other score view slices it.
        """

    def score_all_items(self, user: int) -> np.ndarray:
        """Raw scores of every item in the universe for ``user``."""
        return self.predict_matrix(np.asarray([user], dtype=np.int64))[0]

    def predict_scores(self, user: int, items: np.ndarray) -> np.ndarray:
        """Raw scores of ``items`` for ``user``: a slice of its one-row block."""
        return self.score_all_items(user)[np.asarray(items, dtype=np.int64)]

    def predict_pairs(
        self,
        users: np.ndarray,
        items: np.ndarray,
        *,
        block_size: int | None = None,
    ) -> np.ndarray:
        """Raw scores of the pairs ``(users[j], items[j])``, in input order.

        The distinct users are scored in blocks of ``block_size`` rows of
        :meth:`predict_matrix` and each pair is gathered from its user's row,
        so a repeated pair is returned once per occurrence.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        out = np.empty(users.size, dtype=np.float64)
        order = np.argsort(users, kind="stable")
        distinct, starts = np.unique(users[order], return_index=True)
        bounds = np.append(starts, users.size)
        for block in iter_user_blocks(distinct.size, block_size):
            block_users = distinct[block]
            positions = order[bounds[block[0]] : bounds[block[-1] + 1]]
            rows = np.searchsorted(block_users, users[positions])
            out[positions] = self.predict_matrix(block_users)[rows, items[positions]]
        return out

    def unit_scores_pair(
        self, users: np.ndarray | None, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(a, raw)``: accuracy scores ``a(i)`` and the raw block they map.

        One :meth:`predict_matrix` call gives ``raw``; the default ``a`` is
        its row-wise min-max normalization, a separate array in ``[0, 1]``.
        The GANC optimizers blend Eq. III.1 into ``a`` in place and read the
        stored scores of the chosen items from ``raw``.  ``n`` is unused by
        score-based models but lets membership-based models (Pop) know the
        top-N size.
        """
        del n  # only membership-based recommenders need the top-N size
        raw = self.predict_matrix(users)
        return normalize_rows(raw), raw

    def unit_scores_batch(self, users: np.ndarray | None, n: int) -> np.ndarray:
        """Accuracy scores ``a(i)`` in ``[0, 1]``, one row per user in the block."""
        return self.unit_scores_pair(users, n)[0]

    def unit_scores(self, user: int, n: int) -> np.ndarray:
        """Single-user view of :meth:`unit_scores_batch`."""
        return self.unit_scores_batch(np.asarray([user], dtype=np.int64), n)[0]

    # ------------------------------------------------------------------ #
    # Recommendation
    # ------------------------------------------------------------------ #
    def recommend(
        self,
        user: int,
        n: int,
        *,
        exclude_items: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ) -> np.ndarray:
        """Top-``n`` unseen items for ``user`` in decreasing score order.

        ``exclude_items`` defaults to the user's train items.  ``scores``
        lets callers that already hold the user's raw score row (e.g. a slice
        of a :meth:`predict_matrix` block) skip recomputing it.
        """
        self._check_fitted()
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if scores is None:
            scores = self.score_all_items(user)
        scores = np.asarray(scores, dtype=np.float64).copy()
        if exclude_items is None:
            exclude_items = self.train_data.user_items(user)
        if exclude_items.size:
            scores[np.asarray(exclude_items, dtype=np.int64)] = -np.inf
        return top_n_indices(scores, n)

    def recommend_block(self, users: np.ndarray, n: int) -> np.ndarray:
        """Top-``n`` rows for a block of users (train items excluded).

        Returns a ``(len(users), n)`` int64 array padded with ``-1``, computed
        with one score-matrix evaluation, one fancy-indexed exclusion mask and
        one row-wise 2-D selection (:class:`~repro.parallel.TopNScoresTask`,
        the block unit of :meth:`recommend_all`).
        """
        self._check_fitted()
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        return TopNScoresTask(self, n)(np.asarray(users, dtype=np.int64))[0]

    def recommend_all(
        self,
        n: int,
        *,
        block_size: int | None = None,
        executor: Executor | None = None,
        n_jobs: int | None = None,
    ) -> FittedTopN:
        """Top-``n`` sets for every user (train items excluded).

        Users are processed in blocks of ``block_size`` (default
        :data:`repro.utils.topn.DEFAULT_BLOCK_SIZE`) so peak memory stays
        ``O(block_size × n_items)`` while the scoring itself runs as 2-D
        array operations.  The blocks are independent, so they can fan out
        to an :class:`~repro.parallel.Executor` (or ``n_jobs`` threads);
        every worker count produces the same bytes as the in-order loop.
        The raw scores of the chosen items come from the same blocks.
        """
        self._check_fitted()
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        n_users = self.train_data.n_users
        blocks = list(iter_user_blocks(n_users, block_size))
        task = TopNScoresTask(self, n)
        out = np.empty((n_users, n), dtype=np.int64)
        scores = np.empty((n_users, n), dtype=np.float64)
        executor = resolve_executor(executor, n_jobs)
        for users, (rows, row_scores) in zip(blocks, executor.map_blocks(task, blocks)):
            out[users] = rows
            scores[users] = row_scores
        return FittedTopN(items=out, scores=scores)
