"""Block tasks behind the sharded score paths.

Each task realizes exactly the per-block arithmetic of the in-order loop it
replaces — the same :func:`~repro.ganc.value_function.combined_score_matrix`,
:func:`~repro.utils.topn.mask_pairs` and
:func:`~repro.utils.topn.top_n_matrix` calls on bit-identical inputs — which
is what makes the output byte-identical for any ``n_jobs``.  Tasks hold live
component references; the thread pool shares them with zero serialization.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.utils.topn import mask_pairs, top_n_matrix


def _combined_score_matrix(*args: Any) -> np.ndarray:
    # Imported lazily: repro.ganc pulls in the GANC facade, which imports
    # this module — a module-level import would cycle through the package
    # __init__ files.
    from repro.ganc.value_function import combined_score_matrix

    return combined_score_matrix(*args)


class RecommendBlockTask:
    """Fan-out unit of :meth:`Recommender.recommend_all`: one top-N block."""

    def __init__(self, recommender: Any, n: int) -> None:
        self.recommender = recommender
        self.n = int(n)

    def __call__(self, users: np.ndarray) -> np.ndarray:
        return self.recommender.recommend_block(users, self.n)


class TopNScoresTask:
    """Fan-out unit of artifact compilation (:mod:`repro.serving`).

    Given the already-selected top-N item rows of every user, gathers the
    recommender's raw :meth:`predict_matrix` scores of exactly those items,
    one block of users at a time.  ``-1`` padding gathers to ``NaN``.
    """

    def __init__(self, recommender: Any, items: np.ndarray) -> None:
        self.recommender = recommender
        self.items = np.asarray(items, dtype=np.int64)

    def __call__(self, users: np.ndarray) -> np.ndarray:
        block_items = self.items[users]
        matrix = self.recommender.predict_matrix(users)
        valid = block_items >= 0
        gathered = np.take_along_axis(matrix, np.where(valid, block_items, 0), axis=1)
        return np.where(valid, gathered, np.nan)


class IndependentAssignTask:
    """One blocked step of :meth:`LocallyGreedyOptimizer.run_independent`.

    Valid only for stateless coverage: scores a block's combined value matrix
    and selects its top-N rows, independent of every other block.
    """

    def __init__(
        self,
        coverage: Any,
        theta: np.ndarray,
        n: int,
        accuracy_matrix: Any,
        exclusion_pairs: Any,
    ) -> None:
        self.coverage = coverage
        self.theta = np.asarray(theta, dtype=np.float64)
        self.n = int(n)
        self.accuracy_matrix = accuracy_matrix
        self.exclusion_pairs = exclusion_pairs

    def __call__(self, users: np.ndarray) -> np.ndarray:
        values = _combined_score_matrix(
            self.accuracy_matrix(users),
            self.coverage.scores_matrix(users),
            self.theta[users],
        )
        rows, cols = self.exclusion_pairs(users)
        mask_pairs(values, rows, cols)
        return top_n_matrix(values, self.n)


class SnapshotAssignTask:
    """One blocked step of the OSLG snapshot phase (Algorithm 1, lines 11-15).

    Every non-sampled user is scored against the frozen coverage snapshot of
    the sampled user with the nearest θ; blocks are mutually independent.
    ``snapshots`` is the run's :class:`~repro.coverage.state.DeltaSnapshots`
    log, and each block reconstructs only the score rows of the snapshot
    positions it actually references.
    """

    def __init__(
        self,
        theta: np.ndarray,
        sampled_theta: np.ndarray,
        snapshots: Any,
        n: int,
        accuracy_matrix: Any,
        exclusion_pairs: Any,
    ) -> None:
        self.theta = np.asarray(theta, dtype=np.float64)
        self.sampled_theta = np.asarray(sampled_theta, dtype=np.float64)
        self.snapshots = snapshots
        self.n = int(n)
        self.accuracy_matrix = accuracy_matrix
        self.exclusion_pairs = exclusion_pairs

    def __call__(self, users: np.ndarray) -> np.ndarray:
        nearest = np.argmin(
            np.abs(self.sampled_theta[None, :] - self.theta[users, None]), axis=1
        )
        values = _combined_score_matrix(
            self.accuracy_matrix(users), self.snapshots.scores_at(nearest), self.theta[users]
        )
        rows, cols = self.exclusion_pairs(users)
        mask_pairs(values, rows, cols)
        return top_n_matrix(values, self.n)
