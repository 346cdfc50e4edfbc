"""Canonical top-N selection shared by the per-user and batched score paths.

Every ranking operation in the library — ``Recommender.recommend``, the GANC
optimizers, the evaluation protocols — reduces to "take the ``n`` best items
of a score vector".  This module pins down one tie-breaking convention for all
of them:

* items are ordered by **decreasing score**;
* exact score ties are broken by **increasing item index** (the behaviour of a
  stable sort on the negated scores);
* non-finite scores (``-inf`` exclusion masks, ``NaN``, ``+inf``) are never
  selected.

Both the 1-D (:func:`top_n_indices`) and the row-wise 2-D
(:func:`top_n_matrix`) implementations realize exactly this ordering, which is
what makes the blocked batch paths bit-for-bit equivalent to the historical
per-user loops.  Neither sorts a full row: an ``argpartition`` finds the
``n``-th largest value, and every entry strictly better than it is already
in the partition.  Only the slots of the entries tied with that value can be
wrong, and one equality scan (the tie mask) hands them to the lowest-index
tied entries.  Then only the ``n`` chosen entries are sorted, by
``(value, index)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Default number of users processed per block by batched score paths.  Keeps
#: peak memory at ``O(block_size * n_items)`` regardless of the user count.
DEFAULT_BLOCK_SIZE = 1024


def iter_user_blocks(n_users: int, block_size: int | None = None) -> Iterator[np.ndarray]:
    """Yield contiguous user-index blocks of at most ``block_size`` users."""
    size = DEFAULT_BLOCK_SIZE if block_size is None else int(block_size)
    if size < 1:
        raise ValueError(f"block_size must be >= 1, got {size}")
    for start in range(0, int(n_users), size):
        yield np.arange(start, min(start + size, int(n_users)), dtype=np.int64)


def top_n_indices(
    scores: np.ndarray,
    n: int,
    *,
    work: np.ndarray | None = None,
    assume_finite: bool = False,
) -> np.ndarray:
    """Indices of the top-``n`` finite entries of a 1-D score vector.

    Returns at most ``n`` indices in decreasing score order, ties broken by
    increasing index; may return fewer when fewer finite entries exist.
    Selection is ``O(n_items + n log n)``: one ``argpartition``, one
    equality scan for the entries tied with the ``n``-th value, and a sort
    of the ``n`` chosen entries (the boundary rule of :func:`top_n_matrix`).

    ``work`` is an optional preallocated float64 scratch buffer of the same
    shape as ``scores``; tight sequential callers (the incremental GANC pass
    calls this once per user) reuse one buffer instead of allocating the
    negated copy every call.  Its contents are clobbered.

    ``assume_finite=True`` asserts the caller's guarantee that ``scores``
    contains no ``NaN`` and no ``+inf`` (``-inf`` exclusion masks are fine —
    negation maps them to ``+inf``, which the selection already never
    returns).  This skips the non-finite scrub pass; results are identical
    whenever the guarantee holds.  The incremental GANC engine establishes
    it once per prefetched block instead of once per user.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = int(n)
    k = min(n, scores.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)

    if work is None:
        work = -scores
    else:
        if work.shape != scores.shape or work.dtype != np.float64:
            raise ValueError(
                f"work buffer must be float64 with shape {scores.shape}, "
                f"got {work.dtype} {work.shape}"
            )
        np.negative(scores, out=work)
    if not assume_finite:
        work[~np.isfinite(work)] = np.inf

    if k == work.size:
        order = np.argsort(work, kind="stable")
        return order[np.isfinite(work[order])].astype(np.int64, copy=False)

    # ``argpartition`` leaves the k-th smallest value at position k-1 and
    # every strictly smaller entry before it, so only the slots of the
    # entries tied with that value can be wrong: they belong to the
    # lowest-index tied entries.
    part = np.argpartition(work, k - 1)[:k]
    part_vals = work[part]
    thresh = part_vals[k - 1]
    tied = np.flatnonzero(work == thresh)
    n_in = part_vals.tolist().count(thresh)  # k is small: cheaper than numpy
    if tied.size > n_in:
        part[part_vals == thresh] = tied[:n_in]
    # Ascending (value, index) is decreasing score with index ties.
    order = np.lexsort((part, part_vals))
    top = part[order]
    if thresh == np.inf:
        # Excluded entries were selected to fill the slots; drop them.
        top = top[part_vals[order] != np.inf]
    return top.astype(np.int64, copy=False)


def top_n_matrix(scores: np.ndarray, n: int) -> np.ndarray:
    """Row-wise top-``n`` of a 2-D score block, padded with ``-1``.

    Parameters
    ----------
    scores:
        Array of shape ``(n_rows, n_items)``.  Non-finite entries are treated
        as excluded.  The array is not modified.
    n:
        Number of columns of the result.  Rows with fewer than ``n`` finite
        entries are right-padded with ``-1``.

    Returns
    -------
    ``(n_rows, n)`` int64 array whose row ``r`` lists the top items of
    ``scores[r]`` under the canonical ordering of this module.
    """
    scores = np.array(scores, dtype=np.float64)  # a copy to select in
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score block, got shape {scores.shape}")
    return _top_n_in_place(scores, n)[0]


def _top_n_in_place(scores: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`top_n_matrix` on a block the caller owns, plus the chosen scores.

    Returns ``(top, chosen)``: the ``(n_rows, n)`` top-N rows and the scores
    of those entries (``NaN`` on ``-1`` padding).  ``scores`` must be a
    writable float64 block; it is clobbered (negated, non-finite entries
    overwritten) instead of copied.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n_rows, n_items = scores.shape
    if n_rows == 0:
        return np.empty((0, n), dtype=np.int64), np.empty((0, n), dtype=np.float64)
    k = min(n, n_items)

    # Work in ascending order: negate the scores and push every non-finite
    # entry (exclusion masks, NaN, +inf model scores) to +inf so it sorts
    # last and is never selected.
    work = np.negative(scores, out=scores)
    work[~np.isfinite(work)] = np.inf

    if k == n_items:
        cols = np.argsort(work, axis=1, kind="stable")
        vals = np.take_along_axis(work, cols, axis=1)
    else:
        # Copy the k-column prefix so the full index block is freed at once.
        part = np.argpartition(work, k - 1, axis=1)[:, :k].copy()
        part_vals = np.take_along_axis(work, part, axis=1)
        # The k-th best value bounds the selection, and every entry strictly
        # better than it sits inside the partition.  Only the slots of the
        # entries tied with the bound are ambiguous: they belong to the
        # lowest-index tied entries of the row.
        thresh = part_vals[:, k - 1 : k]
        in_part = part_vals == thresh
        n_in = np.count_nonzero(in_part, axis=1)
        tied = work == thresh
        ambiguous = np.flatnonzero(np.count_nonzero(tied, axis=1) > n_in)
        if ambiguous.size:
            sub = part[ambiguous]
            sub[in_part[ambiguous]] = _first_true(tied[ambiguous], n_in[ambiguous])
            part[ambiguous] = sub
        del tied
        # Ascending (value, index) is decreasing score with index ties (the
        # replaced slots hold values equal to the bound).  The values are
        # re-read: -0.0 and 0.0 tie, but their bits differ.
        order = np.lexsort((part, part_vals), axis=1)
        cols = np.take_along_axis(part, order, axis=1)
        vals = np.take_along_axis(work, cols, axis=1)

    top = np.full((n_rows, n), -1, dtype=np.int64)
    chosen = np.full((n_rows, n), np.nan, dtype=np.float64)
    valid = ~np.isinf(vals)
    top[:, :k] = np.where(valid, cols, -1)
    np.negative(vals, out=chosen[:, :k], where=valid)
    return top, chosen


def _first_true(mask: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column indices of the first ``counts[r]`` True entries of each row.

    Returned flat in row-major order (row 0's columns, then row 1's, ...);
    every row must hold at least ``counts[r]`` True entries.  Each round
    reads each row only up to its next True entry (``argmax`` stops at the
    first True) and clears it in the rows that still need more, so the
    cost grows with the position of the last pick, not with the row width.
    ``mask`` is clobbered.
    """
    rows = np.arange(mask.shape[0])
    picked = np.empty((mask.shape[0], int(counts.max())), dtype=np.int64)
    for j in range(picked.shape[1]):
        first = mask.argmax(axis=1)
        picked[:, j] = first
        more = counts > j + 1
        mask[rows[more], first[more]] = False
    return picked[np.arange(picked.shape[1]) < counts[:, None]]


def gather_scores(scores: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Entries of a score block at a block of top-N rows, ``NaN`` on padding.

    ``scores`` is ``(n_rows, n_items)`` and ``top`` the ``(n_rows, n)``
    ``-1``-padded rows selected for the same users.
    """
    valid = top >= 0
    gathered = np.take_along_axis(scores, np.where(valid, top, 0), axis=1)
    gathered[~valid] = np.nan
    return gathered


def mask_pairs(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Set ``scores[rows, cols] = -inf`` in place and return ``scores``.

    ``scores`` must be a writable float64 block; ``rows``/``cols`` are the
    flattened (block-row, item) exclusion pairs of the block, as produced by
    :meth:`repro.data.dataset.RatingDataset.user_items_batch`.
    """
    if rows.size:
        scores[rows, cols] = -np.inf
    return scores
