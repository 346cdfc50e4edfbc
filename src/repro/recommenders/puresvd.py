"""PureSVD latent-factor model (Cremonesi, Koren, Turrin — RecSys 2010).

Missing ratings are imputed with zeros and a conventional truncated SVD of the
resulting sparse matrix is computed.  The score of item ``i`` for user ``u`` is
the reconstruction ``(U_k Σ_k V_k^T)_{ui}``, which corresponds to an
association strength rather than a predicted rating.  The paper reports two
configurations, PSVD10 and PSVD100 (10 and 100 latent factors).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender


class PureSVD(Recommender):
    """Truncated SVD of the zero-imputed rating matrix.

    Parameters
    ----------
    n_factors:
        Number of singular triplets to keep.  Automatically reduced when the
        train matrix is too small (``k`` must be smaller than both matrix
        dimensions).
    """

    def __init__(self, n_factors: int = 100) -> None:
        super().__init__()
        if n_factors < 1:
            raise ConfigurationError(f"n_factors must be >= 1, got {n_factors}")
        self.n_factors = int(n_factors)
        self.user_factors_: np.ndarray | None = None
        self.item_factors_: np.ndarray | None = None
        self.effective_factors_: int | None = None

    def fit(self, train: RatingDataset) -> "PureSVD":
        """Compute the truncated SVD of the train rating matrix."""
        matrix = train.to_csr().astype(np.float64)
        max_rank = min(matrix.shape) - 1
        if max_rank < 1:
            raise ConfigurationError(
                "PureSVD needs a train matrix with at least 2 users and 2 items"
            )
        k = min(self.n_factors, max_rank)
        # svds' default ARPACK start vector is drawn from the *global* numpy
        # RNG, so a fit is only reproducible when something upstream happens
        # to have seeded it (dataset generation does; a refit of a loaded
        # pipeline does not).  A fixed start vector makes every fit
        # deterministic on its own.
        v0 = np.ones(min(matrix.shape), dtype=np.float64)
        # Imported here, not with the module: this fit is the only user of
        # scipy.sparse.linalg, which loads scipy.linalg with it.
        from scipy.sparse.linalg import svds

        u, s, vt = svds(matrix, k=k, v0=v0)
        # svds returns singular values in ascending order; flip to descending.
        order = np.argsort(-s)
        self.user_factors_ = u[:, order] * s[order][None, :]
        self.item_factors_ = vt[order].T
        self.effective_factors_ = k
        self._mark_fitted(train)
        return self

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Reconstruction rows ``(U_k Σ_k V_k^T)`` for a block of users."""
        self._check_fitted()
        assert self.user_factors_ is not None and self.item_factors_ is not None
        users = self._resolve_users(users)
        return self.user_factors_[users] @ self.item_factors_.T
