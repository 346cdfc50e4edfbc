"""Incremental sequential assignment: the delta-updated core of GANC.

Both sequential optimizers — the exact Locally Greedy pass and OSLG's
sampled pass (Algorithm 1, lines 4–10) — walk users one at a time against the
*dynamic* coverage state.  Historically every step paid three full-width
prices: the user's accuracy row was fetched through a one-user batch, the
coverage score vector was re-derived as ``1 / sqrt(f + 1)`` over all items,
and the θ-blend allocated fresh arrays.  Mathematically, though, one step
only *changes* the N just-assigned items' counts.

:class:`SequentialAssigner` exploits that:

* accuracy rows are prefetched in blocks through the batched provider
  (``unit_scores_pair``: the ``(a, raw)`` pair of one ``predict_matrix``
  call), so the per-user model call disappears, and the raw scores of the
  chosen items are read from the same block;
* coverage scores come from the zero-copy live view of the
  :class:`~repro.coverage.state.CoverageState`, which the assignment updates
  by an O(N) delta;
* the per-user work is exactly one θ-blend into a preallocated buffer, one
  exclusion mask, and one masked argpartition top-N reusing a scratch buffer
  (:func:`~repro.utils.topn.top_n_indices`, which resolves boundary ties
  from one equality scan instead of a full sort).

Every arithmetic operation matches the historical
:func:`~repro.ganc.value_function.combined_item_scores` →
:func:`~repro.utils.topn.top_n_indices` path elementwise, so the produced
collections are byte-identical — pinned by the batch-vs-loop equivalence
tests and the golden masters.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.coverage.dynamic import DynamicCoverage
from repro.exceptions import ConfigurationError
from repro.utils.topn import DEFAULT_BLOCK_SIZE, gather_scores, top_n_indices


def supports_incremental(coverage: object) -> bool:
    """Whether ``coverage`` can run the delta-updated sequential fast path.

    The fast path blends against the live :class:`CoverageState` score
    vector, which is only valid for the stock :class:`DynamicCoverage`
    semantics (user-independent scores, ``np.add.at`` count updates).
    Subclasses that may override ``scores``/``update`` run through Locally
    Greedy's per-user loop; OSLG rejects them.
    """
    return type(coverage) is DynamicCoverage


def iter_order_chunks(
    order: Sequence[int] | np.ndarray, block_size: int | None
) -> Iterator[np.ndarray]:
    """Yield the processing order in contiguous chunks of ``block_size`` users.

    Unlike :func:`repro.utils.topn.iter_user_blocks` the chunks preserve an
    arbitrary (e.g. θ-sorted) ordering instead of being index ranges.
    """
    size = DEFAULT_BLOCK_SIZE if block_size is None else int(block_size)
    if size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {size}")
    order = np.asarray(order, dtype=np.int64)
    for start in range(0, order.size, size):
        yield order[start : start + size]


class SequentialAssigner:
    """One sequential pass over users against delta-updated coverage state.

    Parameters
    ----------
    coverage:
        A fitted :class:`DynamicCoverage` (must satisfy
        :func:`supports_incremental`).
    n:
        Top-N size.
    block_size:
        Users per prefetched accuracy block; peak extra memory is
        ``O(block_size × n_items)``.
    """

    def __init__(
        self,
        coverage: DynamicCoverage,
        n: int,
        *,
        block_size: int | None = None,
    ) -> None:
        if not supports_incremental(coverage):
            raise ConfigurationError(
                "SequentialAssigner requires the stock DynamicCoverage; "
                f"got {type(coverage).__name__}"
            )
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.coverage = coverage
        self.n = int(n)
        self.block_size = block_size

    def run(
        self,
        out: np.ndarray,
        order: Sequence[int] | np.ndarray,
        theta: np.ndarray,
        accuracy_matrix: Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"],
        exclusion_pairs: Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"],
        *,
        scores: np.ndarray,
        on_assign: Callable[[int, np.ndarray], None] | None = None,
    ) -> np.ndarray:
        """Assign every user in ``order`` sequentially, writing rows of ``out``.

        ``out`` is the ``(n_users, n)`` result table, ``-1``-filled by the
        caller, and ``scores`` its float64 twin, which receives the raw
        scores of each assigned row (``NaN`` on ``-1`` padding).  Both are
        modified in place; rows of users outside ``order`` are untouched.
        ``accuracy_matrix`` maps a block of users to its ``(a, raw)`` pair.
        ``on_assign`` is invoked after each step with ``(user, items)`` —
        OSLG uses it to record snapshot deltas.  Returns ``out``.
        """
        theta = np.asarray(theta, dtype=np.float64)
        state = self.coverage.state
        n_items = state.n_items
        values = np.empty(n_items, dtype=np.float64)
        cov_term = np.empty(n_items, dtype=np.float64)
        scratch = np.empty(n_items, dtype=np.float64)
        live_scores = state.scores  # view aliases the state across updates

        for users in iter_order_chunks(order, self.block_size):
            acc_block, raw_block = accuracy_matrix(users)
            acc_block = np.asarray(acc_block, dtype=np.float64)
            raw_block = np.asarray(raw_block, dtype=np.float64)
            if acc_block.shape != (users.size, n_items) or raw_block.shape != acc_block.shape:
                raise ConfigurationError(
                    f"accuracy block must have shape {(users.size, n_items)}, "
                    f"got {acc_block.shape} and raw {raw_block.shape}"
                )
            rows, cols = exclusion_pairs(users)
            bounds = np.searchsorted(rows, np.arange(users.size + 1))
            # One block-level scan establishes the selection's finiteness
            # guarantee (coverage scores are finite by construction, and a
            # bounded blend of finite terms cannot overflow), replacing the
            # per-user non-finite scrub inside the selection.
            finite_block = bool(np.isfinite(acc_block).all()) and (
                acc_block.size == 0 or float(np.abs(acc_block).max()) < 1e300
            )
            theta_block = theta[users]
            bad = np.flatnonzero((theta_block < 0.0) | (theta_block > 1.0) | np.isnan(theta_block))
            if bad.size:
                raise ConfigurationError(
                    f"theta must be in [0, 1], got {float(theta_block[bad[0]])}"
                )
            theta_list = theta_block.tolist()
            users_list = users.tolist()
            for position in range(users.size):
                user = users_list[position]
                theta_u = theta_list[position]
                # Eq. III.1 blend, elementwise identical to
                # combined_item_scores: (1-θ)·a(i) + θ·c(i).
                np.multiply(acc_block[position], 1.0 - theta_u, out=values)
                np.multiply(live_scores, theta_u, out=cov_term)
                np.add(values, cov_term, out=values)
                exclude = cols[bounds[position] : bounds[position + 1]]
                if exclude.size:
                    values[exclude] = -np.inf
                items = top_n_indices(
                    values, self.n, work=scratch, assume_finite=finite_block
                )
                out[user, : items.size] = items
                self.coverage.update(items)
                if on_assign is not None:
                    on_assign(user, items)
            scores[users] = gather_scores(raw_block, out[users])
        return out
