"""Exact Locally Greedy optimization of the GANC objective.

Locally Greedy (Fisher, Nemhauser, Wolsey, 1978) maximizes a submodular
monotone function subject to a partition matroid by considering the partition
blocks — here, users — one at a time and greedily filling each block.  For
GANC with the Dyn coverage recommender this yields a 1/2-approximation of the
optimal top-N collection.

The implementation supports any user ordering (arbitrary, by increasing θ,
...); ordering does not affect the approximation guarantee but, as the paper
observes, serving low-θ users first steers popular items toward users who
prefer them and leaves fresher long-tail items for high-θ users.

The complexity is ``O(|U| · |I| · N)`` in the worst case (per user, one pass
over all items per greedy pick collapses to a single top-N selection because,
within one user's set, item gains are independent of each other).

With a *stateless* coverage recommender (Rand, Stat) the users do not interact
at all, so the whole assignment is a batched 2-D operation:
:meth:`LocallyGreedyOptimizer.run_independent` scores users in memory-bounded
blocks and selects every block's top-N rows at once, producing exactly the
same collection as the sequential loop.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.coverage.base import CoverageRecommender
from repro.exceptions import ConfigurationError
from repro.ganc.incremental import SequentialAssigner, supports_incremental
from repro.ganc.value_function import combined_item_scores
from repro.parallel.executor import Executor, resolve_executor
from repro.parallel.tasks import IndependentAssignTask
from repro.recommenders.base import FittedTopN
from repro.utils.topn import iter_user_blocks, top_n_indices


#: Batched providers.  The accuracy provider maps a block of user indices to
#: its ``(a, raw)`` pair of ``(B, n_items)`` blocks — the accuracy scores
#: ``a(i)`` and the raw model scores they derive from (e.g.
#: :meth:`~repro.recommenders.base.Recommender.unit_scores_pair`).  The
#: blocked phases blend Eq. III.1 into ``a`` in place when it is a writable
#: float64 array that shares no memory with ``raw``, and into a copy
#: otherwise; the optimizers store the raw scores of the items they choose.
#: The exclusion provider maps the block to flattened ``(block_row, item)``
#: exclusion pairs.
BatchAccuracyProvider = Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"]
BatchExclusionProvider = Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"]


class LocallyGreedyOptimizer:
    """Sequential locally greedy assignment of top-N sets.

    Parameters
    ----------
    coverage:
        A fitted coverage recommender.  When it is dynamic its state is
        updated after each user's assignment, creating the cross-user
        dependency the paper describes.
    n:
        Size of each user's top-N set.
    """

    def __init__(self, coverage: CoverageRecommender, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.coverage = coverage
        self.n = int(n)

    def run(
        self,
        theta: np.ndarray,
        accuracy_matrix: BatchAccuracyProvider,
        exclusion_pairs: BatchExclusionProvider,
        *,
        user_order: Sequence[int] | None = None,
        n_users: int | None = None,
        block_size: int | None = None,
    ) -> FittedTopN:
        """Assign a top-N set to every user.

        With the stock :class:`~repro.coverage.dynamic.DynamicCoverage` the
        sequential pass runs on the incremental fast path: accuracy rows are
        prefetched in ``block_size`` blocks and the coverage scores are the
        live delta-updated state vector instead of a per-user recompute.
        Any other coverage recommender (a ``DynamicCoverage`` subclass, or a
        stateless one) runs the per-user loop, which reads one-row blocks of
        the same providers; both produce the same collection.

        Parameters
        ----------
        theta:
            Per-user long-tail preferences in [0, 1].
        accuracy_matrix:
            Callable mapping a block of user indices to its ``(a, raw)``
            pair of ``(B, n_items)`` blocks (see
            :data:`BatchAccuracyProvider`).
        exclusion_pairs:
            Callable mapping a block of user indices to flattened
            ``(block_row, item)`` pairs of items that must not be
            recommended (see
            :meth:`repro.data.dataset.RatingDataset.user_items_batch`).
        user_order:
            Processing order; defaults to ``0..n_users-1``.
        n_users:
            Total number of users (defaults to ``len(theta)``).
        block_size:
            Users per prefetched accuracy block on the fast path.
        """
        theta = np.asarray(theta, dtype=np.float64)
        total_users = int(n_users if n_users is not None else theta.size)
        order = list(user_order) if user_order is not None else list(range(total_users))
        if sorted(order) != list(range(total_users)):
            raise ConfigurationError(
                "user_order must be a permutation of all users"
            )

        out = np.full((total_users, self.n), -1, dtype=np.int64)
        scores = np.full((total_users, self.n), np.nan, dtype=np.float64)
        if supports_incremental(self.coverage):
            assigner = SequentialAssigner(
                self.coverage, self.n, block_size=block_size  # type: ignore[arg-type]
            )
            assigner.run(
                out, order, theta, accuracy_matrix, exclusion_pairs, scores=scores
            )
            return FittedTopN(items=out, scores=scores)

        for user in order:
            block = np.asarray([user], dtype=np.int64)
            _, exclude = exclusion_pairs(block)
            accuracy, raw = accuracy_matrix(block)
            items = self.assign_user(user, float(theta[user]), accuracy[0], exclude)
            out[user, : items.size] = items
            scores[user, : items.size] = raw[0, items]
            if self.coverage.is_dynamic:
                self.coverage.update(items)
        return FittedTopN(items=out, scores=scores)

    def run_independent(
        self,
        theta: np.ndarray,
        accuracy_matrix: BatchAccuracyProvider,
        exclusion_pairs: BatchExclusionProvider,
        *,
        n_users: int | None = None,
        block_size: int | None = None,
        executor: Executor | None = None,
        n_jobs: int | None = None,
    ) -> FittedTopN:
        """Blocked 2-D assignment for stateless (non-dynamic) coverage.

        Because stateless coverage scores never change with assignments, the
        users' value functions are mutually independent and whole blocks can
        be scored and selected at once: one accuracy block, one (possibly
        broadcast) coverage block, one fancy-indexed exclusion mask and one
        row-wise top-N per ``block_size`` users.  The result matches
        :meth:`run` exactly (same canonical tie-breaking) for any worker
        count.

        Parameters
        ----------
        theta:
            Per-user long-tail preferences in [0, 1].
        accuracy_matrix:
            Callable mapping a block of user indices to its ``(a, raw)``
            pair of ``(B, n_items)`` blocks (see
            :data:`BatchAccuracyProvider`).
        exclusion_pairs:
            Callable mapping a block of user indices to flattened
            ``(block_row, item)`` exclusion pairs (see
            :meth:`repro.data.dataset.RatingDataset.user_items_batch`).
        executor, n_jobs:
            Optional worker fan-out of the blocks.
        """
        if self.coverage.is_dynamic:
            raise ConfigurationError(
                "run_independent requires a stateless coverage recommender; "
                "dynamic coverage couples users and needs the sequential run()"
            )
        theta = np.asarray(theta, dtype=np.float64)
        total_users = int(n_users if n_users is not None else theta.size)
        out = np.empty((total_users, self.n), dtype=np.int64)
        scores = np.empty((total_users, self.n), dtype=np.float64)
        blocks = list(iter_user_blocks(total_users, block_size))
        task = IndependentAssignTask(
            self.coverage, theta, self.n, accuracy_matrix, exclusion_pairs
        )
        executor = resolve_executor(executor, n_jobs)
        for users, (rows, row_scores) in zip(blocks, executor.map_blocks(task, blocks)):
            out[users] = rows
            scores[users] = row_scores
        return FittedTopN(items=out, scores=scores)

    def assign_user(
        self,
        user: int,
        theta_u: float,
        accuracy: np.ndarray,
        exclude: np.ndarray,
    ) -> np.ndarray:
        """Greedy top-N set of one user given the current coverage state."""
        coverage_scores = self.coverage.scores(user)
        values = combined_item_scores(accuracy, coverage_scores, theta_u)
        if np.asarray(exclude).size:
            values = values.copy()
            values[np.asarray(exclude, dtype=np.int64)] = -np.inf
        return top_n_indices(values, self.n)
