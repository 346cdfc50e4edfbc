"""The GANC facade: ``GANC(ARec, θ, CRec)`` behind a fit/recommend API.

A :class:`GANC` instance wires together the three components of the paper's
framework (Section III):

* an **accuracy recommender** — any fitted or unfitted
  :class:`~repro.recommenders.base.Recommender`; its unit-interval scores are
  the ``a(i)`` term,
* a **preference model** — any
  :class:`~repro.preferences.base.PreferenceModel` (or a precomputed θ
  vector); its estimates are the per-user mixing weights,
* a **coverage recommender** — Rand, Stat or Dyn; its scores are the ``c(i)``
  term.

With Rand or Stat coverage each user's value function is independent and the
exact greedy solution is a simple per-user top-N over the combined scores.
With Dyn coverage the users interact through the shared assignment counts and
the optimization runs either the exact Locally Greedy pass or the scalable
OSLG heuristic (Algorithm 1), selectable via ``optimizer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Literal, Union

import numpy as np

from repro.coverage.base import CoverageRecommender
from repro.coverage.dynamic import DynamicCoverage
from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ganc.kde import validate_bandwidth
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.ganc.oslg import OSLGOptimizer
from repro.ganc.value_function import UserValueFunction
from repro.parallel.executor import Executor, effective_n_jobs
from repro.preferences.base import PreferenceModel, PreferenceResult
from repro.recommenders.base import FittedTopN, Recommender
from repro.utils.rng import SeedLike

PreferenceLike = Union[PreferenceModel, PreferenceResult, np.ndarray]
OptimizerName = Literal["auto", "oslg", "locally_greedy"]


@dataclass(frozen=True)
class GANCConfig:
    """Hyper-parameters of a GANC run.

    Attributes
    ----------
    sample_size:
        OSLG sample size S (500 in the paper's experiments).
    bandwidth:
        KDE bandwidth rule (``"scott"``/``"silverman"``) or a positive value
        for OSLG's preference-proportionate sampling; validated here at
        construction time so a typo'd rule fails naming the parameter
        instead of deep inside the KDE fit.
    optimizer:
        ``"oslg"``, ``"locally_greedy"``, or ``"auto"`` (OSLG whenever the
        coverage recommender is dynamic and the user count exceeds the sample
        size, exact otherwise).
    theta_order:
        Ordering of the sequential pass: ``"increasing"`` (the paper's
        choice), ``"decreasing"`` or ``"arbitrary"`` — exposed for the
        ordering ablation.
    seed:
        Seed for the KDE sampling step.
    block_size:
        Number of users scored per block by the batched assignment paths
        (``None`` uses :data:`repro.utils.topn.DEFAULT_BLOCK_SIZE`).  Peak
        memory of the independent phases is ``O(block_size × n_items)``.
    n_jobs:
        Workers the independent assignment phases (stateless-coverage
        assignment, OSLG snapshot phase) fan their user blocks out to.
        ``1`` (default) runs serially, ``-1`` uses every CPU.  Results are
        byte-identical for any worker count.
    """

    sample_size: int = 500
    bandwidth: float | str = "silverman"
    optimizer: OptimizerName = "auto"
    theta_order: Literal["increasing", "decreasing", "arbitrary"] = "increasing"
    seed: SeedLike = None
    block_size: int | None = None
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        validate_bandwidth(self.bandwidth, parameter="bandwidth")
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        effective_n_jobs(self.n_jobs)  # validates the requested worker count
        if self.optimizer not in ("auto", "oslg", "locally_greedy"):
            raise ConfigurationError(
                f"optimizer must be 'auto', 'oslg' or 'locally_greedy', got {self.optimizer!r}"
            )
        if self.theta_order not in ("increasing", "decreasing", "arbitrary"):
            raise ConfigurationError(
                f"theta_order must be 'increasing', 'decreasing' or 'arbitrary', "
                f"got {self.theta_order!r}"
            )


class GANC:
    """Generic top-N recommendation framework trading off accuracy, novelty, coverage.

    Parameters
    ----------
    accuracy:
        The accuracy recommender (``ARec``).  Fitted during :meth:`fit` if it
        is not already fitted on the same train data.
    preference:
        The long-tail preference component (``θ``): a preference model, a
        precomputed :class:`PreferenceResult`, or a plain array.
    coverage:
        The coverage recommender (``CRec``).
    config:
        Optimization hyper-parameters; see :class:`GANCConfig`.
    """

    def __init__(
        self,
        accuracy: Recommender,
        preference: PreferenceLike,
        coverage: CoverageRecommender,
        *,
        config: GANCConfig | None = None,
    ) -> None:
        self.accuracy = accuracy
        self.coverage = coverage
        self.config = config or GANCConfig()
        self._preference_input = preference
        self._theta: np.ndarray | None = None
        self._train: RatingDataset | None = None
        self.last_oslg_result_ = None

    # ------------------------------------------------------------------ #
    @property
    def template(self) -> str:
        """The paper's template string ``GANC(ARec, θ, CRec)``."""
        arec = type(self.accuracy).__name__
        if isinstance(self._preference_input, PreferenceModel):
            theta_name = self._preference_input.name
        elif isinstance(self._preference_input, PreferenceResult):
            theta_name = self._preference_input.model_name
        else:
            theta_name = "theta"
        return f"GANC({arec}, {theta_name}, {self.coverage.name})"

    @property
    def theta(self) -> np.ndarray:
        """The fitted per-user preference vector."""
        if self._theta is None:
            raise NotFittedError("GANC must be fitted before accessing theta")
        return self._theta

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._train is not None

    # ------------------------------------------------------------------ #
    def fit(self, train: RatingDataset) -> "GANC":
        """Fit the accuracy recommender, the preference model and the coverage state."""
        if not self.accuracy.is_fitted or self.accuracy.train_data is not train:
            self.accuracy.fit(train)
        self.coverage.fit(train)
        self._theta = self._resolve_theta(train)
        self._train = train
        return self

    def _resolve_theta(self, train: RatingDataset) -> np.ndarray:
        source = self._preference_input
        if isinstance(source, PreferenceModel):
            result = source.estimate(train)
            theta = result.theta
        elif isinstance(source, PreferenceResult):
            theta = source.theta
        else:
            theta = np.asarray(source, dtype=np.float64)
        if theta.shape != (train.n_users,):
            raise ConfigurationError(
                f"theta must have one entry per user ({train.n_users}), got shape {theta.shape}"
            )
        if theta.size and (theta.min() < 0 or theta.max() > 1):
            raise ConfigurationError("theta values must lie in [0, 1]")
        return theta

    # ------------------------------------------------------------------ #
    def value_function(self, user: int, n: int) -> UserValueFunction:
        """Materialize the value function of one user (mainly for inspection)."""
        self._check_fitted()
        return UserValueFunction(
            theta=float(self.theta[user]),
            accuracy_scores=self.accuracy.unit_scores(user, n),
            coverage_scores=self.coverage.scores(user),
        )

    def recommend_all(self, n: int) -> FittedTopN:
        """Assign a top-``n`` set to every user by maximizing Eq. III.2.

        Every phase reads accuracy rows from ``unit_scores_pair`` and
        exclusions from ``user_items_batch``, ``config.block_size`` users at
        a time; all independent-user work — the whole assignment under
        stateless coverage, and the snapshot phase of OSLG — runs as blocked
        matrix operations.  The returned collection carries the accuracy
        recommender's raw scores of the assigned items, read from the same
        blocks (:attr:`FittedTopN.scores`).

        Not safe for concurrent calls on the same instance when coverage is
        dynamic: the sequential optimizers reset and mutate the shared
        coverage state in place (callers that serve concurrently, like the
        artifact store's fallback path, serialize their builds).
        """
        self._check_fitted()
        assert self._train is not None
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        train = self._train
        accuracy_matrix = partial(self.accuracy.unit_scores_pair, n=n)
        exclusion_pairs = train.user_items_batch
        executor = Executor(self.config.n_jobs)

        if self.coverage.is_dynamic:
            self.coverage.reset()
            optimizer_name = self._select_optimizer(train.n_users)
            if optimizer_name == "oslg":
                optimizer = OSLGOptimizer(
                    self.coverage,  # type: ignore[arg-type]
                    n,
                    sample_size=self.config.sample_size,
                    bandwidth=self.config.bandwidth,
                    seed=self.config.seed,
                )
                result = optimizer.run(
                    self.theta,
                    accuracy_matrix,
                    exclusion_pairs,
                    block_size=self.config.block_size,
                    executor=executor,
                )
                self.last_oslg_result_ = result
                return result.top_n
            greedy = LocallyGreedyOptimizer(self.coverage, n)
            order = self._user_order(train.n_users)
            return greedy.run(
                self.theta,
                accuracy_matrix,
                exclusion_pairs,
                user_order=order,
                n_users=train.n_users,
                block_size=self.config.block_size,
            )

        # Static coverage: user value functions are independent, so the exact
        # greedy assignment is a blocked 2-D top-N over the combined scores.
        greedy = LocallyGreedyOptimizer(self.coverage, n)
        return greedy.run_independent(
            self.theta,
            accuracy_matrix,
            exclusion_pairs,
            n_users=train.n_users,
            block_size=self.config.block_size,
            executor=executor,
        )

    def recommend(self, user: int, n: int) -> np.ndarray:
        """Top-``n`` set of a single user.

        For dynamic coverage this is a convenience that evaluates the user
        against the *current* coverage state; use :meth:`recommend_all` for
        the full collection the paper's objective optimizes.
        """
        self._check_fitted()
        assert self._train is not None
        value_function = self.value_function(user, n)
        return value_function.greedy_top_n(n, exclude=self._train.user_items(user))

    # ------------------------------------------------------------------ #
    def _select_optimizer(self, n_users: int) -> str:
        if self.config.optimizer != "auto":
            return self.config.optimizer
        if isinstance(self.coverage, DynamicCoverage) and n_users > self.config.sample_size:
            return "oslg"
        return "locally_greedy"

    def _user_order(self, n_users: int) -> list[int]:
        order = np.arange(n_users)
        if self.config.theta_order == "increasing":
            order = order[np.argsort(self.theta, kind="stable")]
        elif self.config.theta_order == "decreasing":
            order = order[np.argsort(-self.theta, kind="stable")]
        return [int(u) for u in order]

    def _check_fitted(self) -> None:
        if self._train is None:
            raise NotFittedError("GANC must be fitted before it can recommend")
