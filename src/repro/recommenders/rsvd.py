"""Regularized SVD (RSVD): biased matrix factorization trained with SGD.

This is the LIBMF-style rating-prediction model the paper uses as the base of
all re-ranking comparisons (Section IV-A, Table V).  In LIBMF's default
formulation the predicted rating is the plain factor product

``r̂_ui = p_u · q_i``

(no bias terms), and training minimizes the L2-regularized squared error over
the observed ratings.  Setting ``use_biases=True`` switches to the
Koren-style biased model ``r̂_ui = μ + b_u + b_i + p_u · q_i``, which is more
accurate for rating prediction but changes the top-N behaviour the paper
reports for RSVD (the bias-free model tends to overscore rarely rated items,
which is exactly the popularity/coverage profile of RSVD in Table IV).  Optimization uses mini-batch stochastic gradient descent: each epoch
shuffles the observed triples, and within a mini-batch the parameter updates
are applied with scatter-adds (``np.add.at``), which keeps the Python overhead
per epoch constant while remaining a faithful SGD variant.

Setting ``non_negative=True`` projects the latent factors onto the
non-negative orthant after every update, which reproduces the RSVDN variant
the paper also evaluated (and found indistinguishable from RSVD).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics of an SGD run."""

    epoch_rmse: list[float]

    @property
    def final_rmse(self) -> float:
        """Train RMSE after the last epoch (NaN when never trained)."""
        return self.epoch_rmse[-1] if self.epoch_rmse else float("nan")


class RSVD(Recommender):
    """Biased matrix factorization with SGD and L2 regularization.

    Parameters
    ----------
    n_factors:
        Latent dimensionality ``g``.
    n_epochs:
        Number of passes over the training ratings.
    learning_rate:
        SGD step size ``η``.
    reg:
        L2 regularization coefficient ``λ`` applied to factors and biases.
    batch_size:
        Mini-batch size; 1 reproduces classic per-sample SGD (slow in pure
        Python), larger values vectorize each step.
    non_negative:
        Project latent factors to be non-negative after each update (RSVDN).
    use_biases:
        Add a global mean plus user/item bias terms to the prediction
        (disabled by default to match LIBMF).
    init_scale:
        Standard deviation of the factor initialization.
    seed:
        RNG seed for initialization and shuffling.
    """

    def __init__(
        self,
        n_factors: int = 20,
        *,
        n_epochs: int = 20,
        learning_rate: float = 0.01,
        reg: float = 0.05,
        batch_size: int = 1024,
        non_negative: bool = False,
        use_biases: bool = False,
        init_scale: float = 0.1,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if n_factors < 1:
            raise ConfigurationError(f"n_factors must be >= 1, got {n_factors}")
        if n_epochs < 1:
            raise ConfigurationError(f"n_epochs must be >= 1, got {n_epochs}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if reg < 0:
            raise ConfigurationError(f"reg must be non-negative, got {reg}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.n_factors = int(n_factors)
        self.n_epochs = int(n_epochs)
        self.learning_rate = float(learning_rate)
        self.reg = float(reg)
        self.batch_size = int(batch_size)
        self.non_negative = bool(non_negative)
        self.use_biases = bool(use_biases)
        self.init_scale = float(init_scale)
        self._seed = seed

        self.global_mean_: float = 0.0
        self.user_factors_: np.ndarray | None = None
        self.item_factors_: np.ndarray | None = None
        self.user_bias_: np.ndarray | None = None
        self.item_bias_: np.ndarray | None = None
        self.history_: TrainingHistory | None = None

    # ------------------------------------------------------------------ #
    def fit(self, train: RatingDataset) -> "RSVD":
        """Run mini-batch SGD over the observed ratings."""
        rng = ensure_rng(self._seed)
        n_users, n_items = train.n_users, train.n_items
        users = train.user_indices
        items = train.item_indices
        ratings = train.ratings

        self.global_mean_ = train.mean_rating() if self.use_biases else 0.0
        # Bias-free factorization (the LIBMF default) must reconstruct the
        # rating scale from the factor product alone; centering the factor
        # initialization at sqrt(mean_rating / k) makes the initial predictions
        # start near the global mean, which keeps early epochs stable and
        # avoids the long burn-in a zero-centered initialization would need.
        if self.use_biases:
            init_center = 0.0
        else:
            init_center = float(np.sqrt(max(train.mean_rating(), 0.0) / self.n_factors))
        self.user_factors_ = rng.normal(
            init_center, self.init_scale, size=(n_users, self.n_factors)
        )
        self.item_factors_ = rng.normal(
            init_center, self.init_scale, size=(n_items, self.n_factors)
        )
        self.user_bias_ = np.zeros(n_users)
        self.item_bias_ = np.zeros(n_items)
        if self.non_negative:
            np.abs(self.user_factors_, out=self.user_factors_)
            np.abs(self.item_factors_, out=self.item_factors_)

        history: list[float] = []
        n = ratings.size
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            squared_error = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                squared_error += self._sgd_step(users[batch], items[batch], ratings[batch])
            history.append(float(np.sqrt(squared_error / n)))
        self.history_ = TrainingHistory(epoch_rmse=history)
        self._mark_fitted(train)
        return self

    def _sgd_step(self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> float:
        """One mini-batch update; returns the batch's summed squared error.

        Gradient contributions are *averaged* per user and per item within the
        batch (rather than summed): a very popular item can appear hundreds of
        times in one batch, and summing its per-sample gradients with a fixed
        step size makes the update explode on popularity-skewed data.
        Averaging keeps every row's effective step at ``learning_rate`` times
        a single-sample-scale gradient, which is stable for any batch size and
        reduces to classic SGD when ``batch_size=1``.
        """
        assert self.user_factors_ is not None and self.item_factors_ is not None
        assert self.user_bias_ is not None and self.item_bias_ is not None
        lr = self.learning_rate
        reg = self.reg

        pu = self.user_factors_[users]
        qi = self.item_factors_[items]
        pred = (
            self.global_mean_
            + self.user_bias_[users]
            + self.item_bias_[items]
            + np.einsum("ij,ij->i", pu, qi)
        )
        err = ratings - pred

        grad_pu = err[:, None] * qi - reg * pu
        grad_qi = err[:, None] * pu - reg * qi

        user_counts = np.bincount(users, minlength=self.user_factors_.shape[0]).astype(np.float64)
        item_counts = np.bincount(items, minlength=self.item_factors_.shape[0]).astype(np.float64)
        user_scale = 1.0 / user_counts[users]
        item_scale = 1.0 / item_counts[items]

        np.add.at(self.user_factors_, users, lr * grad_pu * user_scale[:, None])
        np.add.at(self.item_factors_, items, lr * grad_qi * item_scale[:, None])
        if self.use_biases:
            grad_bu = err - reg * self.user_bias_[users]
            grad_bi = err - reg * self.item_bias_[items]
            np.add.at(self.user_bias_, users, lr * grad_bu * user_scale)
            np.add.at(self.item_bias_, items, lr * grad_bi * item_scale)

        if self.non_negative:
            np.maximum(self.user_factors_[users], 0.0, out=self.user_factors_[users])
            np.maximum(self.item_factors_[items], 0.0, out=self.item_factors_[items])

        return float(np.dot(err, err))

    # ------------------------------------------------------------------ #
    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Predicted rating rows ``R̂`` for a block of users (all by default)."""
        self._check_fitted()
        assert self.user_factors_ is not None and self.item_factors_ is not None
        assert self.user_bias_ is not None and self.item_bias_ is not None
        users = self._resolve_users(users)
        return (
            self.global_mean_
            + self.user_bias_[users, None]
            + self.item_bias_[None, :]
            + self.user_factors_[users] @ self.item_factors_.T
        )

    def rmse(self, dataset: RatingDataset) -> float:
        """Root-mean-square error of the predictions on ``dataset``.

        Every rating row counts once, repeated ``(user, item)`` pairs
        included; predictions are gathered from blocked
        :meth:`predict_matrix` rows.
        """
        self._check_fitted()
        preds = self.predict_pairs(dataset.user_indices, dataset.item_indices)
        err = dataset.ratings - preds
        return float(np.sqrt(np.mean(err * err))) if err.size else float("nan")
