"""Item-based k-nearest-neighbour collaborative filtering.

A classic memory-based model (Sarwar et al., 2001) included as an additional
baseline for the examples and ablation benches.  The score of an unseen item
is the similarity-weighted average of the user's ratings on the ``k`` most
similar items, with cosine similarity computed on the item-user rating matrix.

The neighbour graph comes from one *blocked gram scan*: the item-item gram
``MᵀM`` is computed one ``block × |I|`` stripe at a time with restricted
sparse products, normalized and pruned to each item's top ``k`` as it
streams, and stored as CSR.  Fit memory is bounded by ``block × |I|``
instead of ``|I|²``, and scoring runs through sparse-sparse products, so a
user costs ``O(nnz_u · k)`` instead of ``O(nnz_u · |I|)``.  Restricted
products accumulate every entry in the same order as the full product, so
the kept similarities are bit-identical to normalizing the dense gram — the
golden fixtures pin this.

``dtype="float32"`` stores the graph and computes scores in single
precision, halving the resident footprint; similarities are still computed
in float64 and then cast.  Top-N equivalence under a documented tolerance
is pinned by ``tests/test_scale.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.exceptions import ConfigurationError
from repro.recommenders.base import Recommender

_SCORE_DTYPES = {"float32": np.float32, "float64": np.float64}

# Item rows per stripe of the gram scan; bounds the densified workspace to
# ``block × n_items`` entries.
_SCAN_BLOCK = 512

# State written by the dense-gram implementation this scan replaced: the raw
# gram, the options of the removed sketch search, and a per-instance
# delta-refit flag.
_LEGACY_ATTRIBUTES = ("_gram", "n_projections", "n_candidates", "seed", "supports_delta_refit")


class ItemKNN(Recommender):
    """Item-item cosine KNN over the train rating matrix.

    Parameters
    ----------
    k:
        Number of neighbours contributing to each prediction.
    shrinkage:
        Additive shrinkage on the similarity denominator; damps similarities
        supported by few co-ratings.
    exact:
        Accepted so specs written while a dense-gram mode existed still
        build (and keep their ``spec_sha256``); it has no effect.
    dtype:
        Scoring precision, ``"float64"`` (default, golden-pinned) or
        ``"float32"``.
    """

    supports_delta_refit = True

    def __init__(
        self,
        k: int = 50,
        *,
        shrinkage: float = 10.0,
        exact: bool = True,
        dtype: str = "float64",
    ) -> None:
        super().__init__()
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if shrinkage < 0:
            raise ConfigurationError(f"shrinkage must be non-negative, got {shrinkage}")
        if dtype not in _SCORE_DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {sorted(_SCORE_DTYPES)}, got {dtype!r}"
            )
        self.k = int(k)
        self.shrinkage = float(shrinkage)
        self.exact = bool(exact)
        self.dtype = str(dtype)
        self.similarity_: sparse.csr_matrix | None = None
        self._abs_similarity: sparse.csr_matrix | None = None

    def fit(self, train: RatingDataset) -> "ItemKNN":
        """Build the top-``k`` neighbour graph with the blocked gram scan.

        The gram diagonal (the squared item norms every denominator needs)
        comes first, from one ``np.bincount`` of the squared ratings over
        their item columns.  Each ``_SCAN_BLOCK``-row stripe of the gram is
        then computed with a restricted product, divided by its shrunk norm
        products, and pruned on the spot: a row
        with more than ``k`` nonzeros drops everything below its
        ``k``-th largest value (ties survive).
        """
        n_items = train.n_items
        matrix = train.to_csc().astype(np.float64)
        item_rows = matrix.T.tocsr()  # items x users; row i is item i's ratings

        # Squared item norms: each entry's r·r summed from 0 into its column,
        # in CSC entry order — the additions the gram product makes for its
        # diagonal, so the norms are the same bits.
        columns = np.repeat(np.arange(n_items), np.diff(matrix.indptr))
        norms = np.sqrt(
            np.bincount(columns, weights=matrix.data * matrix.data, minlength=n_items)
        )

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        values: list[np.ndarray] = []
        for start in range(0, n_items, _SCAN_BLOCK):
            stop = min(start + _SCAN_BLOCK, n_items)
            block = (item_rows[start:stop] @ matrix).toarray()
            denom = np.outer(norms[start:stop], norms) + self.shrinkage
            denom[denom == 0.0] = 1.0
            block /= denom
            local = np.arange(stop - start)
            block[local, local + start] = 0.0
            if self.k < n_items - 1:
                threshold = np.partition(block, -self.k, axis=1)[:, -self.k]
                prune = block < threshold[:, None]
                prune[np.count_nonzero(block, axis=1) <= self.k] = False
                block[prune] = 0.0
            local_rows, local_cols = np.nonzero(block)
            rows.append(local_rows.astype(np.int64) + start)
            cols.append(local_cols.astype(np.int64))
            values.append(block[local_rows, local_cols])

        similarity = sparse.csr_matrix(
            (
                np.concatenate(values).astype(_SCORE_DTYPES[self.dtype]),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(n_items, n_items),
        )
        similarity.eliminate_zeros()
        self.similarity_ = similarity
        # Cached for the batched score path's weight-mass product.
        self._abs_similarity = abs(similarity)
        self._mark_fitted(train)
        return self

    def delta_refit(self, train: RatingDataset) -> "ItemKNN":
        """Absorb appended interactions; the result equals ``fit(train)``.

        A delta that changes no rating column and adds no item — pure user
        growth, i.e. cold-start arrivals — leaves the gram and therefore the
        graph bitwise as a fresh fit would build them, so only the train
        reference moves and ``delta_changed_state`` is False (the streaming
        compile then recomputes only the arrivals' rows).  Any other delta
        reruns the scan: a touched item's norm and gram column enter the
        similarity of every item sharing a rater with it, so patching only
        the touched stripes would not reproduce a fresh fit.
        """
        _, delta_items, _ = self._delta_interactions(train)
        self.delta_changed_state = (
            bool(delta_items.size) or train.n_items != self.train_data.n_items
        )
        if self.delta_changed_state:
            return self.fit(train)
        self._mark_fitted(train)
        return self

    def _upgrade_restored_state(self) -> None:
        """Bring state saved by the dense-gram implementation to the CSR layout.

        Those pipelines stored ``similarity_`` and ``_abs_similarity`` as
        dense ``|I| × |I|`` arrays holding exactly the scan's kept values, so
        converting them serves the same bytes.
        """
        for name in _LEGACY_ATTRIBUTES:
            vars(self).pop(name, None)
        if isinstance(self.similarity_, np.ndarray):
            self.similarity_ = sparse.csr_matrix(self.similarity_)
            self._abs_similarity = abs(self.similarity_)

    def predict_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Neighbour-weighted score rows via two sparse products.

        For a block of users with rating rows ``R`` the numerator is
        ``R @ Sᵀ`` and the per-item weight is ``|R|₀ @ |S|ᵀ`` (indicator rows
        against absolute similarities), which reproduces the per-user
        formula for every user of the block at once.  Both products are
        sparse-sparse and only the block's score rows are densified, never
        ``|U| × |I|``.
        """
        self._check_fitted()
        assert self.similarity_ is not None and self._abs_similarity is not None
        users = self._resolve_users(users)
        block = self.train_data.to_csr()[users].astype(_SCORE_DTYPES[self.dtype])
        numerator = np.asarray((block @ self.similarity_.T).toarray(), dtype=np.float64)
        indicator = block.copy()
        indicator.data = np.ones_like(indicator.data)
        weights = np.asarray(
            (indicator @ self._abs_similarity.T).toarray(), dtype=np.float64
        )
        weights[weights == 0.0] = 1.0
        return numerator / weights
