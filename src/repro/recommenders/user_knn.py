"""User-based k-nearest-neighbour collaborative filtering.

The classic memory-based model of Herlocker et al. (1999), included as an
extra baseline: the score of an unseen item is the similarity-weighted average
of the ratings given by the ``k`` most similar users, with cosine similarity
over mean-centered rating vectors.  The paper's related-work section notes
that this family does not scale to Netflix-size data, which is also visible in
the benchmark timings here — it is provided for completeness and for the
examples, not as a competitive baseline.

The fit is computed in user-row blocks (restricted sparse products
``C[block] @ Cᵀ``), so the dense ``|U| x |U|`` gram matrix is never
materialized; each block's similarity rows walk exactly the float operations
of the original full-gram implementation, so the result is bit-identical
(scipy evaluates restricted products with the same per-entry accumulation
order as the full product — the same guarantee the delta-refit layer relies
on).  The per-row top-k graph is stored as CSR and scored through
sparse-sparse products, so only a block's score rows are ever dense.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender

# User rows per fit block: bounds the blocked gram workspace to
# ``block × n_users`` floats (×2 for the co-rating overlap counts).
_FIT_BLOCK = 1024

# Option of the removed dense similarity container, persisted by pipelines
# saved while it existed.
_LEGACY_ATTRIBUTES = ("dense_similarity_limit",)


class UserKNN(Recommender):
    """User-user cosine KNN on mean-centered ratings.

    Parameters
    ----------
    k:
        Number of neighbours contributing to each prediction.
    shrinkage:
        Additive shrinkage on the similarity denominator.
    min_overlap:
        Minimum number of co-rated items for a pair of users to be considered
        neighbours at all.
    """

    def __init__(
        self,
        k: int = 40,
        *,
        shrinkage: float = 10.0,
        min_overlap: int = 1,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if shrinkage < 0:
            raise ConfigurationError(f"shrinkage must be non-negative, got {shrinkage}")
        if min_overlap < 1:
            raise ConfigurationError(f"min_overlap must be >= 1, got {min_overlap}")
        self.k = int(k)
        self.shrinkage = float(shrinkage)
        self.min_overlap = int(min_overlap)
        self.similarity_: sparse.csr_matrix | None = None
        self.user_means_: np.ndarray | None = None
        self._centered = None
        self._indicator = None

    def fit(self, train: RatingDataset) -> "UserKNN":
        """Compute the user-user similarity graph from mean-centered ratings.

        The computation runs block-by-block over user rows; per-row float
        operations (normalization, shrinkage, overlap gate, top-k threshold
        on ``|similarity|``) are those of a full-gram computation, so the kept
        values equal the dense gram's bit for bit.
        """
        n_users = train.n_users
        matrix = train.to_csr().astype(np.float64)
        counts = np.diff(matrix.indptr)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)

        centered = matrix.copy()
        # Subtract each user's mean from their observed ratings only.
        for user in range(n_users):
            start, stop = centered.indptr[user], centered.indptr[user + 1]
            centered.data[start:stop] -= means[user]

        binary = matrix.copy()
        binary.data = np.ones_like(binary.data)
        centered_t = centered.T.tocsc()
        binary_t = binary.T.tocsc()

        # Row norms: the gram diagonal, recovered from doubly-restricted
        # products ``C[block] @ Cᵀ[:, block]`` — scipy accumulates restricted
        # products entry-for-entry like the full ``C @ Cᵀ``, so these are the
        # bit-exact diagonal values without an |U|² intermediate (an
        # elementwise square-and-sum would differ in the last ulp).
        diagonal_blocks = []
        for start in range(0, n_users, _FIT_BLOCK):
            stop = min(start + _FIT_BLOCK, n_users)
            product = (centered[start:stop] @ centered_t[:, start:stop]).toarray()
            diagonal_blocks.append(np.asarray(product).diagonal())
        norms = np.sqrt(np.maximum(np.concatenate(diagonal_blocks), 1e-12))

        sparse_rows: list[np.ndarray] = []
        sparse_cols: list[np.ndarray] = []
        sparse_vals: list[np.ndarray] = []

        sparsify = self.k < n_users - 1
        for start in range(0, n_users, _FIT_BLOCK):
            stop = min(start + _FIT_BLOCK, n_users)
            block = (centered[start:stop] @ centered_t).toarray()
            block /= np.outer(norms[start:stop], norms) + self.shrinkage

            # Zero out pairs with insufficient co-rated items.
            overlap = (binary[start:stop] @ binary_t).toarray()
            block[overlap < self.min_overlap] = 0.0
            local = np.arange(stop - start)
            block[local, local + start] = 0.0

            if sparsify:
                for offset in local:
                    row = block[offset]
                    if np.count_nonzero(row) > self.k:
                        threshold = np.partition(np.abs(row), -self.k)[-self.k]
                        row[np.abs(row) < threshold] = 0.0
            nz_rows, nz_cols = np.nonzero(block)
            sparse_rows.append(nz_rows + start)
            sparse_cols.append(nz_cols)
            sparse_vals.append(block[nz_rows, nz_cols])

        self.similarity_ = sparse.csr_matrix(
            (
                np.concatenate(sparse_vals),
                (np.concatenate(sparse_rows), np.concatenate(sparse_cols)),
            ),
            shape=(n_users, n_users),
        )
        self.user_means_ = means
        # Cache the mean-centered ratings and the binary rating indicator for
        # the batched score path (both sparse, U x I).
        self._centered = centered
        self._indicator = binary
        self._mark_fitted(train)
        return self

    def _upgrade_restored_state(self) -> None:
        """Bring state saved with the dense similarity container to CSR.

        Those pipelines stored ``similarity_`` as a dense ``|U| × |U|`` array
        holding exactly the values the CSR graph holds, so converting it
        serves the same bytes.
        """
        for name in _LEGACY_ATTRIBUTES:
            vars(self).pop(name, None)
        if isinstance(self.similarity_, np.ndarray):
            self.similarity_ = sparse.csr_matrix(self.similarity_)

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Neighbour predictions for a block of users via sparse products.

        With the block's similarity rows ``W`` (B x U), the deviation
        numerator is ``W @ C`` against the cached mean-centered rating matrix
        ``C`` and the weight mass is ``|W| @ B`` against the binary rating
        indicator ``B``; items no neighbour rated fall back to the user mean.
        Both products are sparse-sparse, so only the block's score rows are
        ever densified.
        """
        self._check_fitted()
        assert self.similarity_ is not None and self.user_means_ is not None
        assert self._centered is not None and self._indicator is not None
        users = self._resolve_users(users)
        weights = self.similarity_[users]
        numerator = np.asarray((weights @ self._centered).toarray(), dtype=np.float64)
        mass = np.asarray((abs(weights) @ self._indicator).toarray(), dtype=np.float64)
        deviation = np.divide(
            numerator, mass, out=np.zeros_like(numerator), where=mass > 0.0
        )
        return self.user_means_[users, None] + deviation
