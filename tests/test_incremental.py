"""Streaming ingestion (:mod:`repro.data.incremental`) and exact delta refits.

The load-bearing guarantee is bitwise: a dataset extended with new triples
plus a model ``delta_refit`` must be indistinguishable — every persisted
array, every recommendation row — from a from-scratch ``fit`` on the same
extended dataset.  The property tests mirror the incremental-coverage suite
(``tests/test_coverage_state.py``): arbitrary deltas, exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.state import CoverageState
from repro.data import (
    RatingDataset,
    RatioSplitter,
    SyntheticConfig,
    SyntheticDatasetFactory,
    consumed_delta,
    extend_split,
    extend_split_interactions,
    read_delta_csv,
)
from repro.exceptions import ConfigurationError, DataError, DataFormatError
from repro.pipeline import ComponentSpec, EvaluationSpec, Pipeline, PipelineSpec
from repro.recommenders.knn import ItemKNN
from repro.recommenders.popularity import MostPopular
from repro.recommenders.user_knn import UserKNN
from repro.simulate import PipelineSource, SimulationConfig, run_simulation

FAST = settings(max_examples=40, deadline=None)

N_USERS = 12
N_ITEMS = 20


def _tiny_dataset(seed: int = 3, n_ratings: int = 60) -> RatingDataset:
    rng = np.random.default_rng(seed)
    return RatingDataset(
        rng.integers(0, N_USERS, size=n_ratings),
        rng.integers(0, N_ITEMS, size=n_ratings),
        rng.uniform(1.0, 5.0, size=n_ratings),
        n_users=N_USERS,
        n_items=N_ITEMS,
    )


#: Arbitrary appended triples over a slightly larger universe than the base
#: dataset, so universe growth is exercised alongside plain appends.
DELTAS = st.lists(
    st.tuples(
        st.integers(0, N_USERS + 3),
        st.integers(0, N_ITEMS + 4),
        st.floats(1.0, 5.0, allow_nan=False),
    ),
    min_size=0,
    max_size=30,
)


def _assert_same_csr(left, right) -> None:
    assert left.dtype == right.dtype and left.shape == right.shape
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(left, part), getattr(right, part))


def _delta_arrays(delta):
    users = np.asarray([u for u, _, _ in delta], dtype=np.int64)
    items = np.asarray([i for _, i, _ in delta], dtype=np.int64)
    ratings = np.asarray([r for _, _, r in delta], dtype=np.float64)
    return users, items, ratings


# --------------------------------------------------------------------------- #
# RatingDataset.extend
# --------------------------------------------------------------------------- #
class TestDatasetExtend:
    def test_appends_triples_and_preserves_prefix(self):
        base = _tiny_dataset()
        grown = base.extend([1, 2], [3, 4], [5.0, 4.0])
        assert grown.n_ratings == base.n_ratings + 2
        np.testing.assert_array_equal(
            grown.user_indices[: base.n_ratings], base.user_indices
        )
        np.testing.assert_array_equal(grown.user_indices[base.n_ratings:], [1, 2])
        np.testing.assert_array_equal(grown.item_indices[base.n_ratings:], [3, 4])
        np.testing.assert_array_equal(grown.ratings[base.n_ratings:], [5.0, 4.0])

    def test_does_not_mutate_the_original(self):
        base = _tiny_dataset()
        before = (
            base.user_indices.copy(),
            base.item_indices.copy(),
            base.ratings.copy(),
            base.n_users,
            base.n_items,
        )
        base.extend([N_USERS + 2], [N_ITEMS + 5], [1.0])
        np.testing.assert_array_equal(base.user_indices, before[0])
        np.testing.assert_array_equal(base.item_indices, before[1])
        np.testing.assert_array_equal(base.ratings, before[2])
        assert (base.n_users, base.n_items) == before[3:]

    def test_universe_grows_to_cover_new_indices(self):
        base = _tiny_dataset()
        grown = base.extend([N_USERS + 1], [N_ITEMS], [2.0])
        assert grown.n_users == N_USERS + 2
        assert grown.n_items == N_ITEMS + 1
        # Default raw ids of the appended entries are their dense indices.
        assert grown.user_ids[-1] == N_USERS + 1
        assert grown.item_ids[-1] == N_ITEMS

    def test_cannot_shrink_the_universe(self):
        base = _tiny_dataset()
        with pytest.raises(DataError, match="shrink"):
            base.extend([0], [0], [1.0], n_users=N_USERS - 1)

    def test_new_id_lists_must_match_growth(self):
        base = _tiny_dataset()
        with pytest.raises(DataError):
            base.extend([N_USERS], [0], [1.0], user_ids=["a", "b"])


# --------------------------------------------------------------------------- #
# extend_split bookkeeping
# --------------------------------------------------------------------------- #
class TestExtendSplit:
    @pytest.fixture()
    def split(self):
        return RatioSplitter(0.5, seed=11).split(_tiny_dataset())

    def test_delta_goes_to_train_and_test_is_reuniversed(self, split):
        ext = extend_split(split, [0, N_USERS], [0, N_ITEMS + 1], [1.0, 2.0])
        assert ext.split.train.n_ratings == split.train.n_ratings + 2
        assert ext.split.test.n_ratings == split.test.n_ratings
        assert ext.split.test.n_users == ext.split.train.n_users == N_USERS + 1
        assert ext.split.test.n_items == ext.split.train.n_items == N_ITEMS + 2

    def test_changed_and_new_bookkeeping(self, split):
        ext = extend_split(split, [3, 3, N_USERS], [0, 1, N_ITEMS], [1, 1, 1])
        np.testing.assert_array_equal(ext.changed_users, [3, N_USERS])
        np.testing.assert_array_equal(ext.new_users, [N_USERS])
        np.testing.assert_array_equal(ext.new_items, [N_ITEMS])
        assert ext.n_new_ratings == 3

    def test_empty_delta_is_a_noop_extension(self, split):
        ext = extend_split(
            split, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        )
        assert ext.n_new_ratings == 0
        assert ext.changed_users.size == ext.new_users.size == ext.new_items.size == 0
        np.testing.assert_array_equal(
            ext.split.train.user_indices, split.train.user_indices
        )

    def test_raw_id_ingestion_grows_id_maps_deterministically(self, split):
        known_user = split.train.user_ids[2]
        known_item = split.train.item_ids[5]
        records = [
            (known_user, known_item, 4.0),
            ("fresh-user", known_item, 1.0),
            ("fresh-user", "fresh-item", 2.0),
        ]
        ext = extend_split_interactions(split, records)
        train = ext.split.train
        assert train.user_ids[-1] == "fresh-user"
        assert train.item_ids[-1] == "fresh-item"
        np.testing.assert_array_equal(train.user_indices[-3:], [2, N_USERS, N_USERS])
        np.testing.assert_array_equal(
            train.item_indices[-3:], [5, 5, N_ITEMS]
        )
        # Repeating the same records resolves through the same (grown) maps.
        again = extend_split_interactions(split, records)
        np.testing.assert_array_equal(
            again.split.train.user_indices, train.user_indices
        )


# --------------------------------------------------------------------------- #
# Exact delta refits
# --------------------------------------------------------------------------- #
class TestDeltaRefit:
    @pytest.fixture()
    def train(self):
        return _tiny_dataset()

    @FAST
    @given(delta=DELTAS)
    def test_popularity_delta_equals_scratch_bitwise(self, delta):
        train = _tiny_dataset()
        users, items, ratings = _delta_arrays(delta)
        grown = train.extend(users, items, ratings)

        incremental = MostPopular().fit(train).delta_refit(grown)
        scratch = MostPopular().fit(grown)
        np.testing.assert_array_equal(incremental._popularity, scratch._popularity)
        np.testing.assert_array_equal(incremental._scores, scratch._scores)
        np.testing.assert_array_equal(
            incremental.recommend_all(5).items, scratch.recommend_all(5).items
        )

    @FAST
    @given(delta=DELTAS)
    def test_coverage_counts_delta_equals_scratch_bitwise(self, delta):
        # The serving loop feeds consumed deltas into CoverageState.apply_batch;
        # mirror test_coverage_state.py's equivalence over ingestion deltas.
        users, items, _ = _delta_arrays(delta)
        per_user = [items[users == u] for u in np.unique(users)]
        state = CoverageState.zeros(N_ITEMS + 5)
        state.apply_batch(per_user)
        fresh = CoverageState.zeros(N_ITEMS + 5)
        fresh.apply_batch([items])
        np.testing.assert_array_equal(state.counts, fresh.counts)
        np.testing.assert_array_equal(state.scores, fresh.scores)

    @FAST
    @given(delta=DELTAS, dtype=st.sampled_from(["float64", "float32"]))
    def test_itemknn_delta_equals_scratch_bitwise(self, delta, dtype):
        train = _tiny_dataset()
        users, items, ratings = _delta_arrays(delta)
        grown = train.extend(users, items, ratings)

        incremental = ItemKNN(k=6, dtype=dtype).fit(train).delta_refit(grown)
        scratch = ItemKNN(k=6, dtype=dtype).fit(grown)
        _assert_same_csr(incremental.similarity_, scratch.similarity_)
        _assert_same_csr(incremental._abs_similarity, scratch._abs_similarity)
        np.testing.assert_array_equal(
            incremental.recommend_all(5).items, scratch.recommend_all(5).items
        )

    def test_cold_start_growth_without_ratings(self, train):
        grown = train.extend(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
            n_users=N_USERS + 4,
        )
        model = MostPopular().fit(train)
        before = model._popularity.copy()
        model.delta_refit(grown)
        np.testing.assert_array_equal(model._popularity, before)
        assert model.train_data is grown
        scratch = MostPopular().fit(grown)
        np.testing.assert_array_equal(
            model.recommend_all(5).items, scratch.recommend_all(5).items
        )

    def test_base_class_refuses_delta(self, train):
        model = UserKNN(k=4).fit(train)
        assert UserKNN.supports_delta_refit is False
        with pytest.raises(ConfigurationError, match="does not support delta"):
            model.delta_refit(train.extend([0], [0], [1.0]))

    def test_non_extension_is_rejected(self, train):
        model = MostPopular().fit(train)
        other = _tiny_dataset(seed=9)
        with pytest.raises(ConfigurationError, match="prefix"):
            model.delta_refit(other)
        shrunk = RatingDataset(
            train.user_indices[:-1],
            train.item_indices[:-1],
            train.ratings[:-1],
            n_users=N_USERS,
            n_items=N_ITEMS,
        )
        with pytest.raises(ConfigurationError, match="extension"):
            model.delta_refit(shrunk)

    def test_itemknn_gram_survives_pipeline_persistence(self, tmp_path, train):
        split = RatioSplitter(0.5, seed=11).split(train)
        spec = PipelineSpec(
            recommender=ComponentSpec("itemknn", params={"k": 6}),
            evaluation=EvaluationSpec(n=5),
            seed=0,
        )
        Pipeline(spec).fit(split).save(tmp_path / "pipe")
        loaded = Pipeline.load(tmp_path / "pipe")
        grown = split.train.extend([0, 1], [2, 3], [1.0, 1.0])
        loaded.recommender.delta_refit(grown)
        scratch = ItemKNN(k=6).fit(grown)
        _assert_same_csr(loaded.recommender.similarity_, scratch.similarity_)


# --------------------------------------------------------------------------- #
# Delta CSV wire format
# --------------------------------------------------------------------------- #
class TestReadDeltaCsv:
    def test_reads_triples_with_default_rating(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("# comment\n1,2,4.5\n\n3,4\nalice,widget,2\n")
        assert read_delta_csv(path) == [
            (1, 2, 4.5),
            (3, 4, 1.0),
            ("alice", "widget", 2.0),
        ]

    def test_header_line_is_skipped(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("user,item,rating\n1,2,3.0\n")
        assert read_delta_csv(path) == [(1, 2, 3.0)]

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("1,2,3.0\n1,2,3,4\n")
        with pytest.raises(DataFormatError, match=r"delta\.csv:2"):
            read_delta_csv(path)

    def test_bad_rating_past_the_header_raises(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("1,2,3.0\n4,5,not-a-number\n")
        with pytest.raises(DataFormatError, match="not a number"):
            read_delta_csv(path)

    def test_empty_and_missing_files_raise(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        with pytest.raises(DataFormatError, match="no interactions"):
            read_delta_csv(empty)
        with pytest.raises(DataFormatError, match="cannot read"):
            read_delta_csv(tmp_path / "missing.csv")


# --------------------------------------------------------------------------- #
# Closing the loop: simulated feedback → ingestible delta → exact refit
# --------------------------------------------------------------------------- #
class TestConsumedDelta:
    def test_repeats_users_per_consumed_item_preserving_duplicates(self):
        users, items, ratings = consumed_delta(
            np.asarray([4, 7, 4]),
            [np.asarray([1, 1]), np.asarray([], dtype=np.int64), np.asarray([2])],
            rating=2.5,
        )
        np.testing.assert_array_equal(users, [4, 4, 4])
        np.testing.assert_array_equal(items, [1, 1, 2])
        np.testing.assert_array_equal(ratings, [2.5, 2.5, 2.5])

    def test_length_mismatch_raises(self):
        with pytest.raises(DataError, match="per event"):
            consumed_delta(np.asarray([1, 2]), [np.asarray([0])])

    def test_simulation_feedback_round_trips_into_an_exact_refit(self, small_split):
        spec = PipelineSpec(
            recommender=ComponentSpec("pop"), evaluation=EvaluationSpec(n=5), seed=0
        )
        pipeline = Pipeline(spec).fit(small_split)
        result = run_simulation(
            PipelineSource(pipeline),
            SimulationConfig(scenario="steady", n_events=40, n=5, window=20, seed=3),
        )
        assert len(result.consumed) == result.trace.n_events
        users, items, ratings = consumed_delta(result.trace.users, result.consumed)
        assert users.size == result.report["totals"]["consumed"]

        ext = extend_split(small_split, users, items, ratings)
        refit = MostPopular().fit(small_split.train).delta_refit(ext.split.train)
        scratch = MostPopular().fit(ext.split.train)
        np.testing.assert_array_equal(refit._popularity, scratch._popularity)
        np.testing.assert_array_equal(
            refit.recommend_all(5).items, scratch.recommend_all(5).items
        )
