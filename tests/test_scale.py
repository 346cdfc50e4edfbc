"""Equivalence gates for the scale layer: out-of-core stores and sparse KNN.

The 10M-rating workload (``benchmarks/bench_scale.py``) only stays honest if
the memory-bounded paths are pinned to the in-memory, golden-covered ones.
This file is that pin:

* chunked CSV ingestion (:mod:`repro.data.outofcore`) must reproduce the
  in-memory :meth:`RatingDataset.from_interactions` dataset *bit-identically*
  — id maps, interaction order, split membership, batch gathers — at every
  shard size, including the ``append`` path vs a single ingest,
* the blocked gram scan of :class:`ItemKNN` must store the same similarity
  values as a dense-gram reference and score identically,
* float32 scoring is gated on a documented tolerance (``FLOAT32_ATOL``) and
  on rank stability: any item that enters/leaves a top-N list under float32
  must be a float64 near-tie within that tolerance,
* ``dtype="float64"`` stays the default everywhere a spec can express it,
  and the retired ``exact`` and sketch options fail naming themselves.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.data.incremental import iter_rating_rows, read_delta_csv
from repro.data.outofcore import (
    INGEST_FORMAT,
    ingest_csv,
    load_ingest_manifest,
    load_outofcore,
)
from repro.data.split import RatioSplitter
from repro.exceptions import ConfigurationError, DataError, DataFormatError
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    Pipeline,
    PipelineSpec,
)
from repro.recommenders.knn import ItemKNN
from repro.registry import create

#: Documented float32-vs-float64 scoring tolerance (see ``docs/scale.md``).
#: Observed drift at benchmark scale is ~1e-6; the gate leaves two orders of
#: magnitude of headroom while still catching any algorithmic divergence.
FLOAT32_ATOL = 1e-4


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #
def _interaction_rows(n_rows: int = 80, seed: int = 0) -> list[tuple[object, object, float]]:
    """Deterministic raw triples with mixed int/str identifiers and repeats."""
    rng = np.random.default_rng(seed)
    rows: list[tuple[object, object, float]] = []
    for _ in range(n_rows):
        user = int(rng.integers(0, 12))
        item = int(rng.integers(0, 15))
        raw_user: object = f"u{user}" if user % 3 == 0 else user
        raw_item: object = f"i{item}" if item % 4 == 0 else item
        rows.append((raw_user, raw_item, float(rng.integers(1, 6))))
    return rows


def _write_csv(path, rows) -> None:
    path.write_text(
        "".join(f"{user},{item},{rating}\n" for user, item, rating in rows),
        encoding="utf-8",
    )


def _clustered_dataset(
    n_clusters: int = 12,
    items_per_cluster: int = 10,
    users_per_cluster: int = 20,
    ratings_per_user: int = 8,
    seed: int = 7,
) -> RatingDataset:
    """A block-structured dataset: each user rates only inside one item cluster.

    Within-cluster item pairs share many co-raters (high similarity) while
    cross-cluster pairs share none, so the true neighbour lists are sharply
    separated.
    """
    rng = np.random.default_rng(seed)
    users: list[int] = []
    items: list[int] = []
    values: list[float] = []
    n_items = n_clusters * items_per_cluster
    user = 0
    for cluster in range(n_clusters):
        base = cluster * items_per_cluster
        for _ in range(users_per_cluster):
            chosen = rng.choice(items_per_cluster, size=ratings_per_user, replace=False)
            for item in chosen:
                users.append(user)
                items.append(base + int(item))
                values.append(float(rng.integers(3, 6)))
            user += 1
    return RatingDataset(
        np.asarray(users),
        np.asarray(items),
        np.asarray(values, dtype=np.float64),
        n_users=user,
        n_items=n_items,
        name="clustered",
    )


@pytest.fixture(scope="module")
def clustered():
    return _clustered_dataset()


def _assert_same_dataset(actual: RatingDataset, expected: RatingDataset) -> None:
    assert actual.n_users == expected.n_users
    assert actual.n_items == expected.n_items
    assert actual.user_ids == expected.user_ids
    assert actual.item_ids == expected.item_ids
    assert np.array_equal(actual.user_indices, expected.user_indices)
    assert np.array_equal(actual.item_indices, expected.item_indices)
    assert np.array_equal(actual.ratings, expected.ratings)


def _dense_knn(train: RatingDataset, k: int, shrinkage: float = 10.0) -> np.ndarray:
    """Dense reference graph: full gram, shrunk cosine, per-row top-k (ties kept)."""
    matrix = train.to_csc().astype(np.float64)
    gram = (matrix.T @ matrix).toarray()
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms) + shrinkage
    denom[denom == 0.0] = 1.0
    similarity = gram / denom
    np.fill_diagonal(similarity, 0.0)
    if k < train.n_items - 1:
        for row in similarity:
            if np.count_nonzero(row) > k:
                row[row < np.partition(row, -k)[-k]] = 0.0
    return similarity


def _dense_knn_scores(train: RatingDataset, similarity: np.ndarray) -> np.ndarray:
    """Reference score rows: rating-weighted over indicator-weighted similarity."""
    ratings = train.to_csr()
    indicator = ratings.copy()
    indicator.data = np.ones_like(indicator.data)
    weights = indicator @ np.abs(similarity).T
    weights[weights == 0.0] = 1.0
    return (ratings @ similarity.T) / weights


# --------------------------------------------------------------------------- #
# Out-of-core ingestion: bit-identity with the in-memory dataset
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("chunk_size", [1, 7, 1000])
def test_ingest_bit_identical_to_in_memory_dataset(tmp_path, chunk_size):
    rows = _interaction_rows()
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, rows)
    store = tmp_path / "store"

    report = ingest_csv(csv_path, store, chunk_size=chunk_size)
    loaded = load_outofcore(store)
    reference = RatingDataset.from_interactions(rows)

    _assert_same_dataset(loaded, reference)
    assert report.n_new_ratings == len(rows)
    assert report.n_shards == -(-len(rows) // chunk_size)


def test_append_matches_single_ingest_and_extend_semantics(tmp_path):
    rows = _interaction_rows(n_rows=90, seed=1)
    first, second = rows[:55], rows[55:]
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    _write_csv(csv_a, first)
    _write_csv(csv_b, second)

    store = tmp_path / "store"
    ingest_csv(csv_a, store, chunk_size=16)
    report = ingest_csv(csv_b, store, chunk_size=16, append=True)
    appended = load_outofcore(store)

    # Same dataset as ingesting everything at once...
    csv_all = tmp_path / "all.csv"
    _write_csv(csv_all, rows)
    once = tmp_path / "once"
    ingest_csv(csv_all, once, chunk_size=16)
    _assert_same_dataset(appended, load_outofcore(once))

    # ...and as the in-memory extend path: from_interactions assigns dense
    # indices in first-appearance order across the concatenated stream.
    _assert_same_dataset(appended, RatingDataset.from_interactions(rows))
    assert report.revision == 2
    assert report.n_ratings == len(rows)
    assert report.n_new_ratings == len(second)


def test_split_membership_and_batch_gathers_identical(tmp_path):
    rows = _interaction_rows(n_rows=120, seed=2)
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, rows)
    store = tmp_path / "store"
    ingest_csv(csv_path, store, chunk_size=13)

    loaded = load_outofcore(store)
    reference = RatingDataset.from_interactions(rows)

    split_l = RatioSplitter(0.8, seed=3).split(loaded)
    split_r = RatioSplitter(0.8, seed=3).split(reference)
    for side_l, side_r in ((split_l.train, split_r.train), (split_l.test, split_r.test)):
        assert np.array_equal(side_l.user_indices, side_r.user_indices)
        assert np.array_equal(side_l.item_indices, side_r.item_indices)
        assert np.array_equal(side_l.ratings, side_r.ratings)

    users = split_r.train.users_with_ratings()
    items_l, offsets_l = split_l.train.user_items_batch(users)
    items_r, offsets_r = split_r.train.user_items_batch(users)
    assert np.array_equal(items_l, items_r)
    assert np.array_equal(offsets_l, offsets_r)


def test_loaded_arrays_are_readonly_memmaps(tmp_path):
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, _interaction_rows(n_rows=30))
    store = tmp_path / "store"
    ingest_csv(csv_path, store, chunk_size=8)

    mapped = load_outofcore(store)
    for array in (mapped.user_indices, mapped.item_indices, mapped.ratings):
        # The constructor's np.asarray is a no-copy view over the memmap
        # (the base-class view drops the np.memmap subclass, not the mapping).
        base = array
        while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
            assert base.base is not None, "array was copied off the memmap"
            base = base.base
        assert isinstance(base, np.memmap)
        assert not array.flags.writeable

    resident = load_outofcore(store, mmap=False)
    assert not isinstance(resident.ratings, np.memmap)
    _assert_same_dataset(mapped, resident)


def test_consolidation_is_cached_per_revision(tmp_path):
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, _interaction_rows(n_rows=40, seed=4))
    store = tmp_path / "store"
    ingest_csv(csv_path, store, chunk_size=9)

    load_outofcore(store)
    marker = store / "consolidated" / "revision.json"
    first_stat = marker.stat().st_mtime_ns
    load_outofcore(store)  # cache hit: marker untouched
    assert marker.stat().st_mtime_ns == first_stat

    delta = tmp_path / "delta.csv"
    _write_csv(delta, [("newuser", "newitem", 4.0)])
    ingest_csv(delta, store, chunk_size=9, append=True)
    grown = load_outofcore(store)  # rebuilt at the new revision
    assert json.loads(marker.read_text(encoding="utf-8"))["revision"] == 2
    assert grown.n_ratings == 41
    assert grown.user_ids[-1] == "newuser"


def test_ingest_error_paths(tmp_path):
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, _interaction_rows(n_rows=10))

    with pytest.raises(ConfigurationError, match="chunk_size"):
        ingest_csv(csv_path, tmp_path / "store", chunk_size=0)

    with pytest.raises(DataError, match="cannot append"):
        ingest_csv(csv_path, tmp_path / "missing", append=True)

    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "stray.txt").write_text("x", encoding="utf-8")
    with pytest.raises(DataError, match="non-empty"):
        ingest_csv(csv_path, occupied)

    store = tmp_path / "store"
    ingest_csv(csv_path, store)
    with pytest.raises(DataError, match="append=True"):
        ingest_csv(csv_path, store)

    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no interactions"):
        ingest_csv(empty, tmp_path / "empty_store")


def test_manifest_validation(tmp_path):
    with pytest.raises(DataFormatError, match="no ingest manifest"):
        load_ingest_manifest(tmp_path)

    (tmp_path / "manifest.json").write_text("not json", encoding="utf-8")
    with pytest.raises(DataFormatError, match="cannot parse"):
        load_ingest_manifest(tmp_path)

    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": "something-else"}), encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match=INGEST_FORMAT):
        load_ingest_manifest(tmp_path)

    (tmp_path / "manifest.json").write_text(
        json.dumps({"format": INGEST_FORMAT, "n_ratings": 1}), encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="missing manifest keys"):
        load_ingest_manifest(tmp_path)


# --------------------------------------------------------------------------- #
# Streaming reader: file:line error reporting
# --------------------------------------------------------------------------- #
def test_malformed_rating_mid_file_reports_file_and_line(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("1,2,5.0\n3,4,4.0\n5,6,not-a-number\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"{path}:3"):
        list(iter_rating_rows(path))


def test_wrong_column_count_reports_file_and_line(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("1,2,5.0\n1,2,3,4\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"{path}:2"):
        list(iter_rating_rows(path))


def test_header_blank_and_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "user,item,rating\n\n# comment\n7,8\nu9,i10,2.5\n", encoding="utf-8"
    )
    rows = list(iter_rating_rows(path, default_rating=1.5))
    assert rows == [(4, 7, 8, 1.5), (5, "u9", "i10", 2.5)]


def test_read_delta_csv_streams_through_the_same_validator(tmp_path):
    path = tmp_path / "delta.csv"
    path.write_text("1,2,5.0\nbad line without commas\n".replace(" ", ""), encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"{path}:2"):
        read_delta_csv(path)

    missing = tmp_path / "nope.csv"
    with pytest.raises(DataFormatError, match="cannot read"):
        list(iter_rating_rows(missing))


# --------------------------------------------------------------------------- #
# The gram scan stores and scores exactly what the dense gram would
# --------------------------------------------------------------------------- #
def test_scan_similarity_bit_identical_to_exact(clustered):
    scan = ItemKNN(10).fit(clustered)
    assert sparse.issparse(scan.similarity_)
    assert np.array_equal(scan.similarity_.toarray(), _dense_knn(clustered, 10))


def test_scan_recommendations_identical_to_exact(clustered):
    # Centred ratings are signed, so some cosines are negative and the
    # weight mass |S| differs from S.
    signed = RatingDataset(
        clustered.user_indices,
        clustered.item_indices,
        clustered.ratings - 4.5,
        n_users=clustered.n_users,
        n_items=clustered.n_items,
    )
    for dataset in (clustered, signed):
        train = RatioSplitter(0.8, seed=0).split(dataset).train
        scan = ItemKNN(10).fit(train)
        dense = _dense_knn(train, 10)
        assert np.array_equal(scan.predict_matrix(), _dense_knn_scores(train, dense))
    assert (dense < 0).any()


def test_one_item_dataset_scores_zero():
    dataset = RatingDataset(
        np.array([0, 1, 2]), np.zeros(3, dtype=np.int64), np.array([5.0, 3.0, 1.0]),
        n_users=4, n_items=1,
    )
    model = ItemKNN().fit(dataset)
    assert model.similarity_.nnz == 0
    assert np.array_equal(model.predict_matrix(), np.zeros((4, 1)))
    assert np.array_equal(model.predict_scores(0, np.arange(1)), np.zeros(1))
    assert model.recommend_block(np.arange(4), 3).tolist() == [
        [-1, -1, -1], [-1, -1, -1], [-1, -1, -1], [0, -1, -1]
    ]


def test_sketch_parameter_validation():
    """The removed sketch and dense-gram options fail naming themselves; dtype is checked."""
    for name, value in (("n_projections", 16), ("n_candidates", 60), ("exact", False)):
        with pytest.raises(ConfigurationError, match=name):
            create("recommender", "itemknn", **{name: value})
        spec = PipelineSpec(
            recommender=ComponentSpec("itemknn", params={"k": 5, name: value}),
            dataset=DatasetSpec(key="ml100k", scale=0.1),
            evaluation=EvaluationSpec(n=5),
            seed=0,
        )
        with pytest.raises(ConfigurationError, match=name):
            Pipeline(spec).fit()
    with pytest.raises(ConfigurationError, match="dtype"):
        ItemKNN(5, dtype="float16")


def test_every_itemknn_supports_delta_refit(clustered):
    base = RatioSplitter(0.8, seed=0).split(clustered).train
    grown = base.extend([0, 5, 7], [3, 3, 40], [1.0, 2.0, 5.0])
    for params in ({}, {"dtype": "float32"}):
        model = ItemKNN(5, **params)
        assert model.supports_delta_refit
        model.fit(base).delta_refit(grown)
        assert model.delta_changed_state
        scratch = ItemKNN(5, **params).fit(grown)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(model.similarity_, part), getattr(scratch.similarity_, part)
            )


# --------------------------------------------------------------------------- #
# float32 scoring: tolerance + rank stability
# --------------------------------------------------------------------------- #
def test_float32_scores_within_documented_tolerance(clustered):
    reference = ItemKNN(10).fit(clustered).predict_matrix()
    scores = ItemKNN(10, dtype="float32").fit(clustered).predict_matrix()
    drift = np.max(np.abs(scores - reference))
    assert drift < FLOAT32_ATOL, f"float32 drift {drift:.2e} exceeds {FLOAT32_ATOL}"


def test_float32_top_n_is_rank_stable_under_tolerance(clustered):
    """Items swapped in/out of a float32 top-N must be float64 near-ties.

    Byte-identical rankings are not promised (that is what ``float64`` is
    for); the float32 contract is that any disagreement is
    confined to items whose float64 scores sit within ``FLOAT32_ATOL`` of the
    top-N boundary score.
    """
    n = 10
    train = RatioSplitter(0.8, seed=0).split(clustered).train
    users = train.users_with_ratings()
    model64 = ItemKNN(10).fit(train)
    model32 = ItemKNN(10, dtype="float32").fit(train)
    top64 = model64.recommend_block(users, n)
    top32 = model32.recommend_block(users, n)
    scores64 = model64.predict_matrix(users)

    for row, user_scores in enumerate(scores64):
        set64 = {int(item) for item in top64[row] if item >= 0}
        set32 = {int(item) for item in top32[row] if item >= 0}
        disagreements = set64 ^ set32
        if not disagreements:
            continue
        boundary = min(user_scores[item] for item in set64)
        for item in disagreements:
            assert abs(user_scores[item] - boundary) < FLOAT32_ATOL, (
                f"user row {row}: item {item} swapped across the top-{n} "
                f"boundary by more than {FLOAT32_ATOL}"
            )


# --------------------------------------------------------------------------- #
# Defaults
# --------------------------------------------------------------------------- #
def test_exact_default_everywhere():
    model = ItemKNN()
    assert model.get_params() == {"dtype": "float64", "k": 50, "shrinkage": 10.0}
    assert create("recommender", "itemknn").get_params() == model.get_params()


def test_spec_round_trip_preserves_the_toggle(tmp_path):
    default_spec = PipelineSpec(
        recommender=ComponentSpec("itemknn", params={"k": 5}),
        dataset=DatasetSpec(key="ml100k", scale=0.1),
        evaluation=EvaluationSpec(n=5),
        seed=0,
    )
    round_tripped = PipelineSpec.from_json(default_spec.to_json())
    assert round_tripped == default_spec
    # A default spec never serializes a dataset path...
    assert "path" not in default_spec.dataset.to_config()

    ann_spec = PipelineSpec(
        recommender=ComponentSpec(
            "itemknn", params={"k": 5, "dtype": "float32"}
        ),
        dataset=DatasetSpec(key="scale", path=str(tmp_path / "store")),
        evaluation=EvaluationSpec(n=5),
        seed=0,
    )
    round_tripped = PipelineSpec.from_json(ann_spec.to_json())
    assert round_tripped == ann_spec
    assert round_tripped.recommender.params["dtype"] == "float32"
    assert round_tripped.dataset.path == str(tmp_path / "store")


# --------------------------------------------------------------------------- #
# End to end: CLI ingest -> pipeline fit from the store -> compiled artifact
# --------------------------------------------------------------------------- #
def _store_with_ratings(tmp_path, n_rows=400, seed=5):
    rng = np.random.default_rng(seed)
    rows = [
        (int(rng.integers(0, 40)), int(rng.integers(0, 30)), float(rng.integers(1, 6)))
        for _ in range(n_rows)
    ]
    csv_path = tmp_path / "ratings.csv"
    _write_csv(csv_path, rows)
    return csv_path, tmp_path / "store"


def test_ingest_cli_end_to_end(tmp_path, capsys):
    from repro.cli import main

    csv_path, store = _store_with_ratings(tmp_path)
    assert main(["ingest", "--csv", str(csv_path), "--output", str(store)]) == 0
    out = capsys.readouterr().out
    assert "ingested 400 rating(s)" in out

    assert main(
        ["ingest", "--csv", str(csv_path), "--output", str(store), "--append"]
    ) == 0
    assert "revision 2" in capsys.readouterr().out
    assert load_outofcore(store).n_ratings == 800


def test_pipeline_fits_and_compiles_from_an_ingest_store(tmp_path):
    from repro.serving.artifact import compile_artifact

    csv_path, store = _store_with_ratings(tmp_path)
    ingest_csv(csv_path, store, chunk_size=128)

    spec = PipelineSpec(
        recommender=ComponentSpec("itemknn", params={"k": 10}),
        dataset=DatasetSpec(key="scale-test", path=str(store)),
        evaluation=EvaluationSpec(n=5),
        seed=0,
    )
    pipeline = Pipeline(spec).fit()
    assert sparse.issparse(pipeline.recommender.similarity_)

    artifact = tmp_path / "artifact"
    compile_artifact(pipeline, artifact)
    manifest = json.loads((artifact / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["score_dtype"] == "float64"
