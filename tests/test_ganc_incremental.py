"""Equivalence tests for the incremental sequential assignment engine.

The engine must be bit-for-bit indistinguishable from the historical
per-user loop (fresh coverage recompute + ``combined_item_scores`` +
canonical ``top_n_indices``) for every input shape the optimizers can feed
it — including heavy exact-tie score distributions, exclusion masks, θ at
the endpoints, and non-finite accuracy rows (which must take the scrubbing
selection, not crash or drift).  The raw scores it stores must be the raw
block's entries at the assigned items.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.state import CoverageState
from repro.exceptions import ConfigurationError
from repro.ganc.incremental import (
    SequentialAssigner,
    iter_order_chunks,
    supports_incremental,
)
from repro.ganc.value_function import combined_item_scores
from repro.utils.topn import top_n_indices

FAST = settings(max_examples=60, deadline=None)

N_ITEMS = 12


def _fit_coverage(n_items: int) -> DynamicCoverage:
    coverage = DynamicCoverage()
    coverage._state = CoverageState.zeros(n_items)
    coverage._n_items = n_items
    return coverage


def reference_sequential(order, theta, acc, exclusions, n, n_users, n_items):
    """The historical per-user loop, operation for operation."""
    coverage = _fit_coverage(n_items)
    out = np.full((n_users, n), -1, dtype=np.int64)
    for user in order:
        values = combined_item_scores(
            acc[user], coverage.scores(user), float(theta[user])
        )
        exclude = exclusions[user]
        if exclude.size:
            values = values.copy()
            values[exclude] = -np.inf
        items = top_n_indices(values, n)
        out[user, : items.size] = items
        coverage.update(items)
    return out


def run_engine(order, theta, acc, exclusions, n, n_users, n_items, block_size=None):
    coverage = _fit_coverage(n_items)
    out = np.full((n_users, n), -1, dtype=np.int64)
    scores = np.full((n_users, n), np.nan)
    # A raw block distinct from ``a`` (any values will do): the engine must
    # store its entries at the assigned items.
    raw = np.arange(n_users * n_items, dtype=np.float64).reshape(n_users, n_items) - 7.5

    def accuracy_matrix(users):
        return acc[users], raw[users]

    def exclusion_pairs(users):
        per_user = [exclusions[int(u)] for u in users]
        counts = np.array([e.size for e in per_user], dtype=np.int64)
        if counts.sum() == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows = np.repeat(np.arange(len(per_user), dtype=np.int64), counts)
        return rows, np.concatenate(per_user)

    assigner = SequentialAssigner(coverage, n, block_size=block_size)
    assigner.run(out, order, theta, accuracy_matrix, exclusion_pairs, scores=scores)
    valid = out >= 0
    np.testing.assert_array_equal(
        scores, np.where(valid, np.take_along_axis(raw, np.where(valid, out, 0), axis=1), np.nan)
    )
    return out, coverage


# --------------------------------------------------------------------------- #
# Fuzzed engine-vs-reference equivalence
# --------------------------------------------------------------------------- #
@FAST
@given(data=st.data())
def test_engine_matches_per_user_reference(data):
    n_users = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 6))
    # Quantized scores make exact ties the norm — the regime that exercises
    # the boundary-tie handling of the fast selection.
    acc = np.asarray(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 3).map(lambda v: v / 3.0),
                         min_size=N_ITEMS, max_size=N_ITEMS),
                min_size=n_users, max_size=n_users,
            )
        )
    )
    theta = np.asarray(
        data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                           min_size=n_users, max_size=n_users))
    )
    exclusions = {
        user: np.unique(
            np.asarray(
                data.draw(st.lists(st.integers(0, N_ITEMS - 1), max_size=N_ITEMS)),
                dtype=np.int64,
            )
        )
        for user in range(n_users)
    }
    order = data.draw(st.permutations(list(range(n_users))))
    block_size = data.draw(st.sampled_from([None, 1, 2, 3, 64]))

    expected = reference_sequential(
        order, theta, acc, exclusions, n, n_users, N_ITEMS
    )
    got, coverage = run_engine(
        order, theta, acc, exclusions, n, n_users, N_ITEMS, block_size
    )
    np.testing.assert_array_equal(got, expected)
    # The coverage state must equal a replay of the reference assignments.
    counts = np.zeros(N_ITEMS)
    for user in range(n_users):
        items = expected[user][expected[user] >= 0]
        np.add.at(counts, items, 1.0)
    np.testing.assert_array_equal(coverage.frequencies, counts)


def test_engine_handles_non_finite_accuracy_rows():
    """NaN/inf accuracy rows must take the canonical path, identically."""
    n_users, n = 4, 3
    rng = np.random.default_rng(0)
    acc = rng.random((n_users, N_ITEMS))
    acc[1, 0] = np.nan
    acc[2, 5] = np.inf
    theta = rng.random(n_users)
    exclusions = {u: np.empty(0, dtype=np.int64) for u in range(n_users)}
    order = list(range(n_users))
    expected = reference_sequential(order, theta, acc, exclusions, n, n_users, N_ITEMS)
    got, _ = run_engine(order, theta, acc, exclusions, n, n_users, N_ITEMS)
    np.testing.assert_array_equal(got, expected)


def test_engine_handles_n_larger_than_item_count():
    n_users, n = 3, N_ITEMS + 4
    rng = np.random.default_rng(1)
    acc = rng.random((n_users, N_ITEMS))
    theta = rng.random(n_users)
    exclusions = {u: np.array([0, 1], dtype=np.int64) for u in range(n_users)}
    order = list(range(n_users))
    expected = reference_sequential(order, theta, acc, exclusions, n, n_users, N_ITEMS)
    got, _ = run_engine(order, theta, acc, exclusions, n, n_users, N_ITEMS)
    np.testing.assert_array_equal(got, expected)


def test_engine_rejects_bad_theta_with_canonical_message():
    n_users = 2
    acc = np.zeros((n_users, N_ITEMS))
    exclusions = {u: np.empty(0, dtype=np.int64) for u in range(n_users)}
    with pytest.raises(ConfigurationError, match=r"theta must be in \[0, 1\]"):
        run_engine([0, 1], np.array([0.5, 1.5]), acc, exclusions, 2, n_users, N_ITEMS)


def test_engine_rejects_misshapen_accuracy_block():
    coverage = _fit_coverage(N_ITEMS)
    out = np.full((2, 2), -1, dtype=np.int64)
    with pytest.raises(ConfigurationError, match="accuracy block"):
        SequentialAssigner(coverage, 2).run(
            out,
            [0, 1],
            np.array([0.5, 0.5]),
            lambda users: (np.zeros((users.size, N_ITEMS + 1)),) * 2,
            lambda users: (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            scores=np.full((2, 2), np.nan),
        )


def test_assigner_requires_stock_dynamic_coverage():
    class CustomDynamic(DynamicCoverage):
        pass

    custom = CustomDynamic()
    custom._state = CoverageState.zeros(N_ITEMS)
    custom._n_items = N_ITEMS
    assert not supports_incremental(custom)
    with pytest.raises(ConfigurationError):
        SequentialAssigner(custom, 2)


def test_iter_order_chunks_preserves_order():
    chunks = list(iter_order_chunks([5, 3, 8, 1, 2], 2))
    assert [c.tolist() for c in chunks] == [[5, 3], [8, 1], [2]]
    with pytest.raises(ConfigurationError):
        list(iter_order_chunks([1], 0))
