"""Batch-vs-loop equivalence of the vectorized scoring engine.

``predict_matrix`` is every recommender's one scoring definition.  Its
blocks (``unit_scores_batch`` / ``recommend_all`` / the GANC blocked phases)
must reproduce one-user-at-a-time loops over the same definition exactly:
identical top-N item ids (including ``-1`` padding rows and stable index
tie-breaking) for every registered recommender and both GANC optimizers.
Raw score rows are checked against in-file per-user oracles of each
family's formula to BLAS reproducibility (a batched matrix product may
differ from a matrix-vector one by a few ulp, which never changes the
selected items), and bitwise across block sizes for the families that
compute every row on its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.random import RandomCoverage
from repro.coverage.static import StaticCoverage
from repro.data.dataset import RatingDataset
from repro.ganc.framework import GANC, GANCConfig
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.ganc.oslg import OSLGOptimizer
from repro.ganc.value_function import combined_item_scores
from repro.recommenders.base import Recommender
from repro.recommenders.cofirank import CofiRank
from repro.recommenders.knn import ItemKNN
from repro.recommenders.popularity import MostPopular
from repro.recommenders.puresvd import PureSVD
from repro.recommenders.random import RandomRecommender
from repro.recommenders.registry import make_recommender
from repro.recommenders.rsvd import RSVD
from repro.recommenders.user_knn import UserKNN
from repro.registry import available
from repro.utils.topn import gather_scores, iter_user_blocks, top_n_indices, top_n_matrix

ALL_RECOMMENDERS = available("recommender")
N = 5

#: Families whose ``predict_matrix`` computes every row on its own, so their
#: score bytes do not depend on the block a row is scored in.
BLOCK_INVARIANT_SCORES = ("pop", "rand", "itemknn", "userknn")


@pytest.fixture(scope="module")
def fitted_models(small_split):
    """Every registered recommender fitted once on the shared small split."""
    return {
        name: make_recommender(name).fit(small_split.train)
        for name in ALL_RECOMMENDERS
    }


def _loop_recommend_all(model: Recommender, n: int) -> np.ndarray:
    out = np.full((model.train_data.n_users, n), -1, dtype=np.int64)
    for user in range(model.train_data.n_users):
        items = model.recommend(user, n)
        out[user, : items.size] = items
    return out


# --------------------------------------------------------------------- #
# Canonical selection helpers
# --------------------------------------------------------------------- #
def test_top_n_matrix_matches_top_n_indices_with_ties(rng):
    # Integer-valued scores force many exact ties; sprinkle exclusions in.
    scores = rng.integers(0, 4, size=(40, 60)).astype(np.float64)
    scores[rng.random(scores.shape) < 0.3] = -np.inf
    batch = top_n_matrix(scores, 7)
    for row in range(scores.shape[0]):
        expected = top_n_indices(scores[row], 7)
        np.testing.assert_array_equal(batch[row, : expected.size], expected)
        assert np.all(batch[row, expected.size :] == -1)


def test_top_n_matrix_pads_rows_without_candidates():
    scores = np.full((3, 4), -np.inf)
    scores[1, 2] = 1.0
    out = top_n_matrix(scores, 3)
    np.testing.assert_array_equal(out[0], [-1, -1, -1])
    np.testing.assert_array_equal(out[1], [2, -1, -1])


def test_top_n_matrix_n_larger_than_items():
    scores = np.array([[1.0, 3.0, 2.0]])
    np.testing.assert_array_equal(top_n_matrix(scores, 5), [[1, 2, 0, -1, -1]])


def test_user_items_batch_matches_per_user(small_split):
    train = small_split.train
    users = np.arange(train.n_users)
    rows, items = train.user_items_batch(users)
    for user in users:
        np.testing.assert_array_equal(items[rows == user], train.user_items(int(user)))


# --------------------------------------------------------------------- #
# Recommender batch paths
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_RECOMMENDERS)
def test_recommend_all_matches_per_user_loop(fitted_models, name):
    model = fitted_models[name]
    batch = model.recommend_all(N)
    np.testing.assert_array_equal(batch.items, _loop_recommend_all(model, N))


@pytest.mark.parametrize("name", ALL_RECOMMENDERS)
def test_recommend_all_is_block_size_invariant(fitted_models, name):
    model = fitted_models[name]
    reference = model.recommend_all(N).items
    scores = model.predict_matrix()
    for block_size in (1, 7, 64):
        np.testing.assert_array_equal(
            model.recommend_all(N, block_size=block_size).items, reference
        )
        if name in BLOCK_INVARIANT_SCORES:
            blocks = iter_user_blocks(model.train_data.n_users, block_size)
            rows = np.concatenate([model.predict_matrix(users) for users in blocks])
            assert np.array_equal(rows, scores)


@pytest.mark.parametrize("name", ALL_RECOMMENDERS)
def test_unit_scores_batch_matches_per_user(fitted_models, name):
    model = fitted_models[name]
    users = np.arange(model.train_data.n_users)
    batch = model.unit_scores_batch(users, N)
    loop = np.stack([model.unit_scores(int(u), N) for u in users])
    assert batch.shape == loop.shape
    # Bit-exact except for BLAS batch-of-1 vs batched kernel differences.
    np.testing.assert_allclose(batch, loop, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["pop", "rand", "itemknn", "userknn"])
def test_unit_scores_batch_bit_exact_for_non_gemm_models(fitted_models, name):
    model = fitted_models[name]
    users = np.arange(model.train_data.n_users)
    batch = model.unit_scores_batch(users, N)
    loop = np.stack([model.unit_scores(int(u), N) for u in users])
    np.testing.assert_array_equal(batch, loop)


def _user_knn_row(model: UserKNN, user: int) -> np.ndarray:
    """Mean plus the similarity-weighted centered ratings of the raters."""
    weights = model.similarity_[user].toarray().ravel()
    neighbours = np.flatnonzero(weights != 0.0)
    csc = model.train_data.to_csc()
    row = np.full(csc.shape[1], model.user_means_[user])
    for item in range(csc.shape[1]):
        raters = csc.indices[csc.indptr[item] : csc.indptr[item + 1]]
        ratings = csc.data[csc.indptr[item] : csc.indptr[item + 1]]
        mask = np.isin(raters, neighbours)
        sims = weights[raters[mask]]
        denom = np.abs(sims).sum()
        if denom > 0:
            centered = ratings[mask] - model.user_means_[raters[mask]]
            row[item] += float(sims @ centered) / denom
    return row


def _item_knn_row(model: ItemKNN, user: int) -> np.ndarray:
    """Similarity-weighted average of the user's ratings, item by item."""
    rated_items, rated_values = model.train_data.user_ratings(user)
    sims = model.similarity_[:, rated_items].toarray()
    weights = np.abs(sims).sum(axis=1)
    weights[weights == 0.0] = 1.0
    return (sims @ rated_values) / weights


def _per_user_row(model: Recommender, user: int) -> np.ndarray:
    """One user's raw score row, recomputed from the fitted state."""
    if isinstance(model, MostPopular):
        n_items = model.popularity.size
        return model.popularity - np.arange(n_items) / (10.0 * n_items)
    if isinstance(model, RandomRecommender):
        rng = np.random.default_rng(model._base_seed + user)
        return rng.random(model.train_data.n_items)
    if isinstance(model, PureSVD):
        return model.item_factors_ @ model.user_factors_[user]
    if isinstance(model, RSVD):
        return (
            model.global_mean_
            + model.user_bias_[user]
            + model.item_bias_
            + model.item_factors_ @ model.user_factors_[user]
        )
    if isinstance(model, CofiRank):
        return model.global_mean_ + model.item_factors_ @ model.user_factors_[user]
    if isinstance(model, ItemKNN):
        return _item_knn_row(model, user)
    if isinstance(model, UserKNN):
        return _user_knn_row(model, user)
    raise AssertionError(f"no per-user oracle for {type(model).__name__}")


@pytest.mark.parametrize("name", ALL_RECOMMENDERS)
def test_predict_matrix_matches_base_fallback(fitted_models, name):
    """``predict_matrix`` equals stacked per-user rows of the family's formula."""
    model = fitted_models[name]
    users = np.arange(0, model.train_data.n_users, 3)
    vectorized = model.predict_matrix(users)
    stacked = np.stack([_per_user_row(model, int(user)) for user in users])
    np.testing.assert_allclose(vectorized, stacked, rtol=0.0, atol=1e-12)


def test_recommend_accepts_precomputed_scores(fitted_models):
    model = fitted_models["psvd10"]
    user = 4
    row = model.predict_matrix(np.asarray([user]))[0]
    np.testing.assert_array_equal(
        model.recommend(user, N, scores=row), model.recommend(user, N)
    )
    # The precomputed row is not mutated by the exclusion masking.
    assert np.all(np.isfinite(row))


def test_padding_rows_match_when_candidates_run_out():
    # User 0 rates 5 of 6 items: asking for n=4 leaves a single candidate
    # and three -1 padding slots on both paths.
    triples = [(0, i, 4.0) for i in range(5)] + [(1, 0, 3.0), (1, 5, 2.0)]
    data = RatingDataset.from_interactions(triples)
    model = make_recommender("pop").fit(data)
    batch = model.recommend_all(4)
    np.testing.assert_array_equal(batch.items, _loop_recommend_all(model, 4))
    assert np.array_equal(batch.items[0][1:], [-1, -1, -1])


def test_tie_breaking_prefers_lower_item_index(tiny_dataset):
    class ConstantScores(Recommender):
        def fit(self, train):
            self._mark_fitted(train)
            return self

        def predict_matrix(self, users=None):
            users = self._resolve_users(users)
            return np.zeros((users.size, self.train_data.n_items))

    model = ConstantScores().fit(tiny_dataset)
    batch = model.recommend_all(3)
    np.testing.assert_array_equal(batch.items, _loop_recommend_all(model, 3))
    # All scores equal: user 3 rated {0, 4, 5}, so the lowest unseen indices win.
    np.testing.assert_array_equal(batch.items[3], [1, 2, 3])


# --------------------------------------------------------------------- #
# GANC optimizers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("coverage_factory", [StaticCoverage, RandomCoverage])
@pytest.mark.parametrize("name", ["pop", "psvd10", "rsvd"])
def test_independent_branch_matches_sequential_loop(small_split, fitted_models, name, coverage_factory):
    train = small_split.train
    model = fitted_models[name]
    coverage = coverage_factory().fit(train)
    rng = np.random.default_rng(5)
    theta = rng.random(train.n_users)
    optimizer = LocallyGreedyOptimizer(coverage, N)

    def recording(blocks):
        """The accuracy provider, keeping every ``(users, raw)`` block it returns."""

        def provider(users):
            a, raw = model.unit_scores_pair(users, N)
            blocks.append((np.array(users), raw.copy()))
            return a, raw

        return provider

    batched_blocks, sequential_blocks = [], []
    batched = optimizer.run_independent(
        theta, recording(batched_blocks), train.user_items_batch,
        n_users=train.n_users, block_size=17,
    )
    sequential = optimizer.run(
        theta, recording(sequential_blocks), train.user_items_batch, n_users=train.n_users
    )
    np.testing.assert_array_equal(batched.items, sequential.items)
    # Each path stores the raw scores of the items it chose, read from the
    # blocks it was given.  The two paths' blocks are not compared: a 17-row
    # and a one-row GEMM may round the same score differently.
    for result, blocks in ((batched, batched_blocks), (sequential, sequential_blocks)):
        assert sorted(np.concatenate([users for users, _ in blocks]).tolist()) == list(
            range(train.n_users)
        )
        expected = np.full(result.scores.shape, np.nan)
        for users, raw in blocks:
            expected[users] = gather_scores(raw, result.items[users])
        np.testing.assert_array_equal(result.scores.view(np.uint64), expected.view(np.uint64))


def test_run_independent_rejects_dynamic_coverage(small_split, fitted_models):
    train = small_split.train
    coverage = DynamicCoverage().fit(train)
    optimizer = LocallyGreedyOptimizer(coverage, N)
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        optimizer.run_independent(
            np.zeros(train.n_users),
            lambda users: (np.zeros((users.size, train.n_items)),) * 2,
            train.user_items_batch,
        )


def _float32_a(a, raw):
    return a.astype(np.float32), raw


def _read_only_a(a, raw):
    a.setflags(write=False)
    return a, raw


def _raw_as_a(a, raw):
    return raw, raw


@pytest.mark.parametrize("optimizer", ["oslg", "independent"])
@pytest.mark.parametrize(
    "unowned", [_float32_a, _read_only_a, _raw_as_a], ids=["float32", "read_only", "raw_as_a"]
)
def test_blocked_phases_accept_accuracy_blocks_they_cannot_overwrite(
    small_split, fitted_models, unowned, optimizer
):
    """An ``a`` block that is float32, read-only or ``raw`` itself gives the
    bytes of its writable float64 copy: the blocked phases blend into a copy
    instead of failing or overwriting the raw scores they store."""
    train = small_split.train
    model = fitted_models["psvd10"]
    theta = np.random.default_rng(4).random(train.n_users)

    def given(users):
        return unowned(*model.unit_scores_pair(users, N))

    def owned(users):
        a, raw = given(users)
        return np.array(a, dtype=np.float64), raw

    def run(accuracy):
        if optimizer == "oslg":
            oslg = OSLGOptimizer(DynamicCoverage().fit(train), N, sample_size=20, seed=3)
            return oslg.run(theta, accuracy, train.user_items_batch, block_size=13).top_n
        return LocallyGreedyOptimizer(StaticCoverage().fit(train), N).run_independent(
            theta, accuracy, train.user_items_batch, block_size=13
        )

    result, reference = run(given), run(owned)
    np.testing.assert_array_equal(result.items, reference.items)
    np.testing.assert_array_equal(result.scores, reference.scores)


@pytest.mark.parametrize("name", ["pop", "psvd10"])
def test_oslg_snapshot_phase_matches_per_user_reference(small_split, fitted_models, name):
    train = small_split.train
    model = fitted_models[name]
    rng = np.random.default_rng(9)
    theta = rng.random(train.n_users)

    batched = OSLGOptimizer(DynamicCoverage().fit(train), N, sample_size=20, seed=3).run(
        theta,
        lambda users: model.unit_scores_pair(users, N),
        train.user_items_batch,
        block_size=13,
    )

    # Per-user reference: identical sequential pass (same seed), then a
    # one-user-at-a-time assignment against each frozen snapshot.
    sampled = batched.sampled_users
    out = np.full((train.n_users, N), -1, dtype=np.int64)
    coverage = DynamicCoverage().fit(train)
    greedy = LocallyGreedyOptimizer(coverage, N)
    for user in sampled:
        items = greedy.assign_user(
            int(user),
            float(theta[user]),
            model.unit_scores(int(user), N),
            train.user_items(int(user)),
        )
        out[user, : items.size] = items
        coverage.update(items)
    np.testing.assert_array_equal(out[sampled], batched.top_n.items[sampled])

    sampled_theta = theta[sampled]
    remaining = np.setdiff1d(np.arange(train.n_users), sampled)
    for user in remaining:
        nearest = int(np.argmin(np.abs(sampled_theta - theta[user])))
        values = combined_item_scores(
            model.unit_scores(int(user), N),
            DynamicCoverage.snapshot_scores(batched.snapshots[nearest]),
            float(theta[user]),
        )
        values[train.user_items(int(user))] = -np.inf
        items = top_n_indices(values, N)
        out[user, : items.size] = items
    np.testing.assert_array_equal(out, batched.top_n.items)


@pytest.mark.parametrize("coverage_name", ["static", "dynamic"])
def test_ganc_facade_block_size_invariance(small_split, coverage_name):
    train = small_split.train
    theta = np.random.default_rng(2).random(train.n_users)

    def build(block_size):
        coverage = StaticCoverage() if coverage_name == "static" else DynamicCoverage()
        ganc = GANC(
            make_recommender("pop"),
            theta,
            coverage,
            config=GANCConfig(sample_size=25, seed=0, block_size=block_size),
        )
        return ganc.fit(train).recommend_all(N).items

    reference = build(None)
    np.testing.assert_array_equal(build(9), reference)
    np.testing.assert_array_equal(build(1), reference)
