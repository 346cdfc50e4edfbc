"""End-to-end evaluation pipeline: fit models, generate top-N sets, score them.

The :class:`Evaluator` binds a train/test split together with the popularity
statistics and the relevance threshold, so every algorithm evaluated against
it is measured under identical conditions — which is exactly how the paper's
tables are produced.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.data.dataset import RatingDataset
from repro.data.popularity import PopularityStats
from repro.data.split import TrainTestSplit
from repro.evaluation.protocols import AllUnratedItemsProtocol, RankingProtocol
from repro.exceptions import EvaluationError
from repro.metrics.report import MetricReport, evaluate_top_n
from repro.parallel.executor import Executor, resolve_executor
from repro.recommenders.base import FittedTopN, Recommender

RecommendationsLike = Mapping[int, np.ndarray] | FittedTopN


@dataclass
class EvaluationRun:
    """One evaluated algorithm: its recommendations plus the metric report."""

    algorithm: str
    recommendations: dict[int, np.ndarray]
    report: MetricReport


@dataclass
class Evaluator:
    """Shared evaluation context for a dataset split.

    Attributes
    ----------
    split:
        The train/test split every algorithm is evaluated on.
    n:
        Top-N size (5 for most of the paper's tables).
    relevance_threshold:
        Minimum test rating for an item to count as relevant (4.0).
    beta:
        Stratified-recall exponent (0.5).
    protocol:
        The ranking protocol used when evaluating raw recommenders.
    block_size:
        Users scored per matrix block when generating top-N sets (``None``
        uses :data:`repro.utils.topn.DEFAULT_BLOCK_SIZE`); whole-table runs
        therefore go through the batched ``predict_matrix`` path while peak
        memory stays bounded.
    n_jobs, executor:
        Worker fan-out of the score blocks when generating top-N sets: an
        explicit :class:`~repro.parallel.Executor` wins, otherwise
        ``n_jobs`` threads are used, and ``n_jobs=1`` runs in order in the
        caller.  Metric outputs are byte-identical for every setting.
    """

    split: TrainTestSplit
    n: int = 5
    relevance_threshold: float = 4.0
    beta: float = 0.5
    protocol: RankingProtocol = field(default_factory=AllUnratedItemsProtocol)
    block_size: int | None = None
    n_jobs: int = 1
    executor: Executor | None = field(default=None, repr=False)
    _popularity: PopularityStats | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise EvaluationError(f"n must be >= 1, got {self.n}")
        if self.block_size is not None and self.block_size < 1:
            raise EvaluationError(f"block_size must be >= 1, got {self.block_size}")
        self._resolve_executor()  # validates n_jobs eagerly

    def _resolve_executor(self) -> Executor:
        return resolve_executor(self.executor, self.n_jobs)

    @property
    def train(self) -> RatingDataset:
        """Train partition of the split."""
        return self.split.train

    @property
    def test(self) -> RatingDataset:
        """Test partition of the split."""
        return self.split.test

    @property
    def popularity(self) -> PopularityStats:
        """Cached popularity statistics of the train set."""
        if self._popularity is None:
            self._popularity = PopularityStats.from_dataset(self.train)
        return self._popularity

    # ------------------------------------------------------------------ #
    def evaluate_recommendations(
        self,
        recommendations: RecommendationsLike,
        *,
        algorithm: str,
        include_ndcg: bool = False,
    ) -> EvaluationRun:
        """Score an explicit top-N collection."""
        recs = (
            recommendations.as_dict()
            if isinstance(recommendations, FittedTopN)
            else {int(u): np.asarray(v, dtype=np.int64) for u, v in recommendations.items()}
        )
        report = evaluate_top_n(
            recs,
            self.train,
            self.test,
            self.n,
            algorithm=algorithm,
            relevance_threshold=self.relevance_threshold,
            beta=self.beta,
            popularity=self.popularity,
            include_ndcg=include_ndcg,
        )
        return EvaluationRun(algorithm=algorithm, recommendations=recs, report=report)

    def evaluate_recommender(
        self,
        recommender: Recommender,
        *,
        algorithm: str | None = None,
        fit: bool = True,
        include_ndcg: bool = False,
    ) -> EvaluationRun:
        """Fit (optionally) and evaluate a plain accuracy recommender."""
        if fit or not recommender.is_fitted:
            recommender.fit(self.train)
        recs = self.protocol.top_n(
            recommender, self.train, self.test, self.n,
            block_size=self.block_size, executor=self._resolve_executor(),
        )
        return self.evaluate_recommendations(
            recs,
            algorithm=algorithm or type(recommender).__name__,
            include_ndcg=include_ndcg,
        )

    def evaluate_pipeline(
        self,
        build_recommendations: Callable[[TrainTestSplit, int], RecommendationsLike],
        *,
        algorithm: str,
        include_ndcg: bool = False,
    ) -> EvaluationRun:
        """Evaluate any callable that maps (split, n) to recommendations.

        Used for re-ranking frameworks (GANC, RBT, 5D, PRA) whose output is a
        full top-N collection rather than a scoring model.  Builders that
        accept an ``executor`` keyword receive this evaluator's executor, so
        framework runs inherit the evaluation fan-out without new plumbing.
        """
        kwargs = {}
        try:
            parameters = inspect.signature(build_recommendations).parameters
        except (TypeError, ValueError):  # builtins / odd callables
            parameters = {}
        if "executor" in parameters:
            kwargs["executor"] = self._resolve_executor()
        recs = build_recommendations(self.split, self.n, **kwargs)
        return self.evaluate_recommendations(
            recs, algorithm=algorithm, include_ndcg=include_ndcg
        )
