"""The per-user value function of GANC (Eq. III.1).

``v_u(P_u) = (1 − θ_u) · a(P_u) + θ_u · c(P_u)``

where ``a(P_u) = Σ_{i∈P_u} a(i)`` is the accuracy score of the set according
to the accuracy recommender and ``c(P_u) = Σ_{i∈P_u} c(i)`` the coverage
score.  Both per-item scores live on ``[0, 1]`` so the preference θ_u acts as
an interpretable mixing weight: θ_u = 0 reduces to pure accuracy ranking,
θ_u = 1 to pure coverage maximization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.topn import top_n_indices


def combined_item_scores(
    accuracy_scores: np.ndarray,
    coverage_scores: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Per-item marginal value ``(1 − θ)·a(i) + θ·c(i)``.

    Because both score vectors are additive over items and, within a single
    user's set, independent of which other items the user receives, the greedy
    choice for a user reduces to taking the top-N items of this combined
    vector.
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigurationError(f"theta must be in [0, 1], got {theta}")
    acc = np.asarray(accuracy_scores, dtype=np.float64)
    cov = np.asarray(coverage_scores, dtype=np.float64)
    if acc.shape != cov.shape:
        raise ConfigurationError(
            f"accuracy and coverage score vectors must align, got {acc.shape} vs {cov.shape}"
        )
    return (1.0 - theta) * acc + theta * cov


def combined_score_matrix(
    accuracy_scores: np.ndarray,
    coverage_scores: np.ndarray,
    theta: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Eq. III.1: value rows for a block of users at once.

    ``accuracy_scores`` and ``coverage_scores`` are ``(B, n_items)`` blocks
    (either may be a broadcast view) and ``theta`` holds the block's B mixing
    weights.  Row ``u`` equals ``combined_item_scores(acc[u], cov[u],
    theta[u])`` exactly, since the scalar arithmetic is identical.  The
    result is written into ``out`` (a writable float64 block of the same
    shape, typically the accuracy block itself) or into a fresh array.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ConfigurationError(f"theta block must be 1-D, got shape {theta.shape}")
    if theta.size and (theta.min() < 0.0 or theta.max() > 1.0):
        raise ConfigurationError("theta values must lie in [0, 1]")
    acc = np.asarray(accuracy_scores, dtype=np.float64)
    cov = np.asarray(coverage_scores, dtype=np.float64)
    if acc.ndim != 2 or acc.shape != cov.shape:
        raise ConfigurationError(
            f"score blocks must be 2-D and aligned, got {acc.shape} vs {cov.shape}"
        )
    if acc.shape[0] != theta.size:
        raise ConfigurationError(
            f"theta block must have one entry per row, got {theta.size} for {acc.shape}"
        )
    if out is None:
        out = np.empty(acc.shape, dtype=np.float64)
    elif out.shape != acc.shape or out.dtype != np.float64:
        raise ConfigurationError(
            f"out must be a float64 block of shape {acc.shape}, got {out.dtype} {out.shape}"
        )
    np.multiply((1.0 - theta)[:, None], acc, out=out)
    out += theta[:, None] * cov
    return out


@dataclass(frozen=True)
class UserValueFunction:
    """Value function of one user, bound to concrete score vectors.

    Attributes
    ----------
    theta:
        The user's long-tail novelty preference θ_u ∈ [0, 1].
    accuracy_scores:
        Vector ``a(i)`` over all items (already on [0, 1]).
    coverage_scores:
        Vector ``c(i)`` over all items (already on [0, 1]).
    """

    theta: float
    accuracy_scores: np.ndarray
    coverage_scores: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        acc = np.asarray(self.accuracy_scores, dtype=np.float64)
        cov = np.asarray(self.coverage_scores, dtype=np.float64)
        if acc.shape != cov.shape:
            raise ConfigurationError(
                f"score vectors must have identical shapes, got {acc.shape} vs {cov.shape}"
            )
        object.__setattr__(self, "accuracy_scores", acc)
        object.__setattr__(self, "coverage_scores", cov)

    def item_values(self) -> np.ndarray:
        """Marginal value of each item for this user."""
        return combined_item_scores(self.accuracy_scores, self.coverage_scores, self.theta)

    def value_of(self, items: np.ndarray) -> float:
        """``v_u(P_u)`` for a concrete top-N set ``items``."""
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return 0.0
        acc = float(self.accuracy_scores[items].sum())
        cov = float(self.coverage_scores[items].sum())
        return (1.0 - self.theta) * acc + self.theta * cov

    def greedy_top_n(self, n: int, *, exclude: np.ndarray | None = None) -> np.ndarray:
        """Greedy (= optimal, for additive scores) top-``n`` set for this user."""
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        values = self.item_values()
        if exclude is not None and np.asarray(exclude).size:
            values = values.copy()
            values[np.asarray(exclude, dtype=np.int64)] = -np.inf
        return top_n_indices(values, n)
