"""Block tasks behind the sharded score paths.

Each task realizes exactly the per-block arithmetic of the in-order loop it
replaces — the same :func:`~repro.ganc.value_function.combined_score_matrix`,
:func:`~repro.utils.topn.mask_pairs` and top-N selection calls on
bit-identical inputs — which is what makes the output byte-identical for any
``n_jobs``.  Every task returns a block's ``(top, scores)`` pair: the top-N
item rows and the accuracy recommender's raw :meth:`predict_matrix` scores
of those items (``NaN`` on ``-1`` padding), read from the same score block
the selection used.  Tasks own the blocks they score, so they select in
place instead of copying.  Tasks hold live component references; the thread
pool shares them with zero serialization.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.utils.topn import _top_n_in_place, gather_scores, mask_pairs


def _blend_into_accuracy(
    accuracy: np.ndarray, raw: np.ndarray, coverage: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Eq. III.1 for one block, written over the provider's ``a`` block.

    ``a`` is the output when it is a writable float64 array that shares no
    memory with ``raw``; any other ``a`` (float32, read-only, or ``raw``
    itself) is copied first, so the blocked phases accept every ``(a, raw)``
    pair the sequential engine accepts.
    """
    # Imported lazily: repro.ganc pulls in the GANC facade, which imports
    # this module — a module-level import would cycle through the package
    # __init__ files.
    from repro.ganc.value_function import combined_score_matrix

    accuracy = np.require(accuracy, dtype=np.float64, requirements="W")
    if np.may_share_memory(accuracy, raw):
        accuracy = accuracy.copy()
    return combined_score_matrix(accuracy, coverage, theta, out=accuracy)


class TopNScoresTask:
    """Fan-out unit of :meth:`Recommender.recommend_all`: one block's top-N.

    Scores the block once with :meth:`predict_matrix`, masks the users'
    train items and selects the top-``n`` rows in place; returns the rows
    and the raw scores of the chosen items (``NaN`` on ``-1`` padding).
    """

    def __init__(self, recommender: Any, n: int) -> None:
        self.recommender = recommender
        self.n = int(n)

    def __call__(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = self.recommender.predict_matrix(users)
        rows, cols = self.recommender.train_data.user_items_batch(users)
        return _top_n_in_place(mask_pairs(scores, rows, cols), self.n)


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

    def __call__(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        accuracy, raw = self.accuracy_matrix(users)
        values = _blend_into_accuracy(
            accuracy, raw, self.coverage.scores_matrix(users), self.theta[users]
        )
        rows, cols = self.exclusion_pairs(users)
        top, _ = _top_n_in_place(mask_pairs(values, rows, cols), self.n)
        return top, gather_scores(raw, top)


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

    def __call__(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nearest = np.argmin(
            np.abs(self.sampled_theta[None, :] - self.theta[users, None]), axis=1
        )
        accuracy, raw = self.accuracy_matrix(users)
        values = _blend_into_accuracy(
            accuracy, raw, self.snapshots.scores_at(nearest), self.theta[users]
        )
        rows, cols = self.exclusion_pairs(users)
        top, _ = _top_n_in_place(mask_pairs(values, rows, cols), self.n)
        return top, gather_scores(raw, top)
