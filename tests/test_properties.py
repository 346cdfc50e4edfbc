"""Hypothesis property tests: top-N tie-break invariants and sharded equivalence.

Two families of properties back the batched/parallel engine:

* the canonical tie-breaking contract of :mod:`repro.utils.topn`
  (decreasing score, increasing index on ties, non-finite never selected,
  ``-1`` right-padding) checked against a brute-force reference ordering;
* batch-vs-serial-vs-parallel equivalence — splitting any score matrix into
  arbitrary user blocks and fanning the blocks out to any number of workers
  reassembles the exact serial result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.dataset import RatingDataset
from repro.parallel import Executor
from repro.recommenders.popularity import MostPopular
from repro.utils.rng import spawn_seed_sequences
from repro.utils.topn import _top_n_in_place, iter_user_blocks, top_n_indices, top_n_matrix

FAST = settings(max_examples=40, deadline=None)
SLOWER = settings(max_examples=15, deadline=None)

#: Scores drawn from a tiny value pool so exact ties are the norm, plus the
#: non-finite values the selection must never pick.
TIED_SCORES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


def reference_top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Brute-force canonical ordering: (-score, index) over finite entries."""
    finite = np.flatnonzero(np.isfinite(scores))
    order = finite[np.lexsort((finite, -scores[finite]))]
    return order[:n].astype(np.int64)


# --------------------------------------------------------------------------- #
# top_n_indices / top_n_matrix tie-break invariants
# --------------------------------------------------------------------------- #
@FAST
@given(
    scores=hnp.arrays(dtype=np.float64, shape=st.integers(0, 60), elements=TIED_SCORES),
    n=st.integers(1, 70),
)
def test_top_n_indices_matches_reference_ordering(scores, n):
    got = top_n_indices(scores, n)
    np.testing.assert_array_equal(got, reference_top_n(scores, n))


@FAST
@given(
    scores=hnp.arrays(dtype=np.float64, shape=st.integers(1, 60), elements=TIED_SCORES),
    n=st.integers(1, 70),
)
def test_top_n_indices_stability_and_exclusion_invariants(scores, n):
    got = top_n_indices(scores, n)
    # Never a non-finite entry, never a duplicate, never more than n.
    assert got.size <= n
    assert np.isfinite(scores[got]).all()
    assert len(set(got.tolist())) == got.size
    # Decreasing score; exact ties ordered by increasing index.
    picked = scores[got]
    assert (np.diff(picked) <= 0).all()
    for left, right in zip(got[:-1], got[1:]):
        if scores[left] == scores[right]:
            assert left < right


@FAST
@given(
    scores=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(0, 12), st.integers(1, 40)),
        elements=TIED_SCORES,
    ),
    n=st.integers(1, 45),
)
def test_top_n_matrix_rows_equal_per_vector_selection_with_padding(scores, n):
    got = top_n_matrix(scores, n)
    assert got.shape == (scores.shape[0], n)
    for row in range(scores.shape[0]):
        expected = reference_top_n(scores[row], n)
        np.testing.assert_array_equal(got[row, : expected.size], expected)
        # Right-padding is -1 and nothing but -1.
        assert (got[row, expected.size:] == -1).all()


@FAST
@given(
    scores=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 60),
        elements=st.one_of(st.integers(-3, 3).map(float), st.just(-np.inf)),
    ),
    n=st.integers(1, 70),
)
def test_top_n_indices_scratch_path_matches_reference_ordering(scores, n):
    """The sequential GANC engine's call: a reused scratch buffer, no scrub."""
    work = np.full(scores.shape, 123.0)
    got = top_n_indices(scores, n, work=work, assume_finite=True)
    np.testing.assert_array_equal(got, reference_top_n(scores, n))


@FAST
@given(
    scores=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(0, 12), st.integers(1, 40)),
        # -0.0 ties with 0.0 but has other bits.
        elements=st.one_of(TIED_SCORES, st.just(-0.0)),
    ),
    n=st.integers(1, 45),
)
def test_in_place_selection_returns_the_chosen_scores(scores, n):
    top, chosen = _top_n_in_place(scores.copy(), n)
    np.testing.assert_array_equal(top, top_n_matrix(scores, n))
    valid = top >= 0
    expected = np.take_along_axis(scores, np.where(valid, top, 0), axis=1)
    assert np.isnan(chosen[~valid]).all()
    # Bit-exact: the chosen scores are negated back from the work block.
    assert chosen[valid].tobytes() == expected[valid].tobytes()


@FAST
@given(n_users=st.integers(0, 200), block_size=st.integers(1, 50))
def test_iter_user_blocks_partitions_the_user_range(n_users, block_size):
    blocks = list(iter_user_blocks(n_users, block_size))
    assert all(1 <= b.size <= block_size for b in blocks)
    if blocks:
        np.testing.assert_array_equal(np.concatenate(blocks), np.arange(n_users))
    else:
        assert n_users == 0


# --------------------------------------------------------------------------- #
# Batch vs serial vs parallel equivalence
# --------------------------------------------------------------------------- #
class _BlockTopN:
    """Block task over a fixed score matrix (the sharded engine in miniature)."""

    def __init__(self, scores: np.ndarray, n: int) -> None:
        self.scores = scores
        self.n = n

    def __call__(self, users: np.ndarray) -> np.ndarray:
        return top_n_matrix(self.scores[users], self.n)


@SLOWER
@given(
    scores=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 25), st.integers(1, 30)),
        elements=TIED_SCORES,
    ),
    n=st.integers(1, 8),
    block_size=st.integers(1, 30),
    n_jobs=st.sampled_from([1, 2, 4]),
)
def test_blocked_parallel_selection_reassembles_serial_result(
    scores, n, block_size, n_jobs
):
    n_users = scores.shape[0]
    full = top_n_matrix(scores, n)
    blocks = list(iter_user_blocks(n_users, block_size))
    task = _BlockTopN(scores, n)
    for executor in (Executor(1), Executor(n_jobs)):
        out = np.empty_like(full)
        for users, rows in zip(blocks, executor.map_blocks(task, blocks)):
            out[users] = rows
        np.testing.assert_array_equal(out, full)


@st.composite
def small_interaction_sets(draw):
    n_users = draw(st.integers(2, 12))
    n_items = draw(st.integers(3, 15))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
            min_size=n_users,  # at least ~one rating somewhere per user
            max_size=n_users * n_items // 2,
        )
    )
    triples = [(u, i, float(draw(st.integers(1, 5)))) for u, i in sorted(pairs)]
    return n_users, n_items, triples


@SLOWER
@given(
    data=small_interaction_sets(),
    n=st.integers(1, 6),
    block_size=st.integers(1, 16),
    n_jobs=st.sampled_from([1, 2, 3]),
)
def test_recommender_batch_serial_parallel_equivalence(data, n, block_size, n_jobs):
    n_users, n_items, triples = data
    dataset = RatingDataset(
        np.array([u for u, _, _ in triples], dtype=np.int64),
        np.array([i for _, i, _ in triples], dtype=np.int64),
        np.array([r for _, _, r in triples], dtype=np.float64),
        n_users=n_users,
        n_items=n_items,
        name="fuzz",
    )
    model = MostPopular().fit(dataset)

    # Reference: the historical one-user-at-a-time loop.
    loop = np.full((n_users, n), -1, dtype=np.int64)
    for user in range(n_users):
        items = model.recommend(user, n)
        loop[user, : items.size] = items

    batched = model.recommend_all(n, block_size=block_size).items
    np.testing.assert_array_equal(batched, loop)
    parallel = model.recommend_all(n, block_size=block_size, n_jobs=n_jobs).items
    np.testing.assert_array_equal(parallel, loop)


@FAST
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 20))
def test_spawn_seed_sequences_are_prefix_stable(seed, count):
    longer = spawn_seed_sequences(seed, count + 5)
    for position, seq in enumerate(spawn_seed_sequences(seed, count)):
        assert (
            np.random.default_rng(seq).integers(0, 2**32, 4).tolist()
            == np.random.default_rng(longer[position]).integers(0, 2**32, 4).tolist()
        )


# --------------------------------------------------------------------------- #
# Scale layer: chunked ingestion and sparse KNN equivalence
# --------------------------------------------------------------------------- #
def _random_interactions(rng: np.random.Generator, n_rows: int):
    """Raw (user, item, rating) triples with repeats and mixed id types."""
    rows = []
    for _ in range(n_rows):
        user = int(rng.integers(0, 8))
        item = int(rng.integers(0, 10))
        rows.append(
            (
                f"u{user}" if user % 2 else user,
                f"i{item}" if item % 3 == 0 else item,
                float(rng.integers(1, 6)),
            )
        )
    return rows


@SLOWER
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 60),
    chunk_size=st.integers(1, 24),
    split_point=st.integers(0, 60),
)
def test_chunked_ingestion_bit_identical_to_in_memory(seed, n_rows, chunk_size, split_point):
    """Any shard size — and any one-append split — rebuilds the same dataset."""
    import tempfile
    from pathlib import Path

    from repro.data.outofcore import ingest_csv, load_outofcore

    rows = _random_interactions(np.random.default_rng(seed), n_rows)
    reference = RatingDataset.from_interactions(rows)
    split_point = min(split_point, n_rows)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        first = tmp_path / "first.csv"
        first.write_text(
            "".join(f"{u},{i},{r}\n" for u, i, r in rows[:split_point]), encoding="utf-8"
        )
        second = tmp_path / "second.csv"
        second.write_text(
            "".join(f"{u},{i},{r}\n" for u, i, r in rows[split_point:]), encoding="utf-8"
        )
        store = tmp_path / "store"
        if split_point:
            ingest_csv(first, store, chunk_size=chunk_size)
        if split_point < n_rows:
            ingest_csv(second, store, chunk_size=chunk_size, append=bool(split_point))
        loaded = load_outofcore(store)

    assert loaded.user_ids == reference.user_ids
    assert loaded.item_ids == reference.item_ids
    np.testing.assert_array_equal(loaded.user_indices, reference.user_indices)
    np.testing.assert_array_equal(loaded.item_indices, reference.item_indices)
    np.testing.assert_array_equal(loaded.ratings, reference.ratings)


@SLOWER
@given(
    seed=st.integers(0, 2**16),
    n_users=st.integers(3, 12),
    n_items=st.integers(4, 16),
    n_rows=st.integers(8, 80),
    k=st.integers(1, 6),
)
def test_scan_mode_item_knn_matches_exact_on_random_data(seed, n_users, n_items, n_rows, k):
    """The blocked gram scan keeps and scores exactly what a dense gram would."""
    from repro.recommenders.knn import ItemKNN

    rng = np.random.default_rng(seed)
    dataset = RatingDataset(
        rng.integers(0, n_users, size=n_rows),
        rng.integers(0, n_items, size=n_rows),
        rng.integers(1, 6, size=n_rows).astype(np.float64),
        n_users=n_users,
        n_items=n_items,
    )
    # Dense oracle: full gram, shrunk cosine, per-row top-k with ties kept.
    matrix = dataset.to_csc().astype(np.float64)
    gram = (matrix.T @ matrix).toarray()
    norms = np.sqrt(np.diag(gram))
    denom = np.outer(norms, norms) + 10.0
    similarity = gram / denom
    np.fill_diagonal(similarity, 0.0)
    if k < n_items - 1:
        for row in similarity:
            if np.count_nonzero(row) > k:
                row[row < np.partition(row, -k)[-k]] = 0.0
    ratings = dataset.to_csr()
    indicator = ratings.copy()
    indicator.data = np.ones_like(indicator.data)
    weights = indicator @ np.abs(similarity).T
    weights[weights == 0.0] = 1.0

    scan = ItemKNN(k).fit(dataset)
    np.testing.assert_array_equal(scan.similarity_.toarray(), similarity)
    np.testing.assert_array_equal(scan.predict_matrix(), (ratings @ similarity.T) / weights)


@SLOWER
@given(
    seed=st.integers(0, 2**16),
    n_users=st.integers(3, 12),
    n_items=st.integers(4, 16),
    n_rows=st.integers(8, 80),
)
def test_float32_scoring_stays_within_tolerance(seed, n_users, n_items, n_rows):
    """float32 scores track float64 within the documented FLOAT32_ATOL bound."""
    from repro.recommenders.knn import ItemKNN

    FLOAT32_ATOL = 1e-4  # the documented bound; see tests/test_scale.py

    rng = np.random.default_rng(seed)
    dataset = RatingDataset(
        rng.integers(0, n_users, size=n_rows),
        rng.integers(0, n_items, size=n_rows),
        rng.integers(1, 6, size=n_rows).astype(np.float64),
        n_users=n_users,
        n_items=n_items,
    )
    reference = ItemKNN(5).fit(dataset).predict_matrix()
    scores = ItemKNN(5, dtype="float32").fit(dataset).predict_matrix()
    assert np.max(np.abs(scores - reference)) < FLOAT32_ATOL


# --------------------------------------------------------------------------- #
# Block CSV parser vs the per-line reader it replaced
# --------------------------------------------------------------------------- #
def _reference_coerce_id(token):
    try:
        return int(token)
    except ValueError:
        return token


def reference_rating_rows(path, *, default_rating=1.0):
    """The per-line ``iter_rating_rows`` the block parser replaced, verbatim."""
    from repro.exceptions import DataFormatError

    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) not in (2, 3):
                raise DataFormatError(
                    f"{path}:{number}: expected 'user,item[,rating]', got {line!r}"
                )
            try:
                rating = float(parts[2]) if len(parts) == 3 else default_rating
            except ValueError as exc:
                if number == 1:
                    continue  # header line
                raise DataFormatError(
                    f"{path}:{number}: rating {parts[2]!r} is not a number"
                ) from exc
            yield (
                number,
                _reference_coerce_id(parts[0]),
                _reference_coerce_id(parts[1]),
                rating,
            )


def _drain(rows):
    """Every row an iterator yields, then the message of the error it raised."""
    from repro.exceptions import DataFormatError

    collected = []
    try:
        for row in rows:
            collected.append(row)
    except DataFormatError as exc:
        return collected, str(exc)
    return collected, None


_PADDING = st.sampled_from(["", "", " ", "\t", "  ", "\u00a0", "\x1c"])
#: Few ids, many spellings of one: ``1``/``01``/``+1`` and ``3``/``+3``/``٣``
#: coerce to one int each, ``10``/``1_0`` too, so per-token coercion must
#: dedupe what it assigns.
_ID_TOKENS = st.sampled_from(
    ["0", "1", "01", "+1", "3", "+3", "٣", "10", "1_0", "-2", "u1", "x", ""]
)
_NUMBERS = st.one_of(
    st.sampled_from(["1", "2.5", "4.0", "-0.0", "1e3", "1_0", ".5"]),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-Infinity"]),
)
_NOT_NUMBERS = st.sampled_from(["x", "rating", "4..0", "", "1__0"])


@st.composite
def _field(draw, tokens):
    return draw(_PADDING) + draw(tokens) + draw(_PADDING)


@st.composite
def rating_csv_text(draw):
    """CSV text mixing every shape the ratings reader accepts or rejects.

    Half the files may hold malformed lines (non-numeric ratings past line 1,
    wrong field counts), often several, so the earliest one must win.
    """
    malformed = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["user,item,rating", "u , i , r", "user,item"])))
    row = st.one_of(
        st.tuples(_field(_ID_TOKENS), _field(_ID_TOKENS)),
        st.tuples(_field(_ID_TOKENS), _field(_ID_TOKENS), _field(_NUMBERS)),
    )
    skipped = st.one_of(
        _PADDING, st.sampled_from(["#", "# comment", "  # indented, comment", "#1,2,3,4"])
    )
    unrated = st.tuples(_field(_ID_TOKENS), _field(_ID_TOKENS), _field(_NOT_NUMBERS))
    misshapen = st.one_of(
        st.lists(_field(_ID_TOKENS), min_size=1, max_size=1),
        st.lists(_field(_NUMBERS), min_size=4, max_size=5),
    )
    line = (
        st.one_of(row, row, skipped, unrated, misshapen)
        if malformed
        else st.one_of(row, row, skipped)
    )
    for fields in draw(st.lists(line, max_size=14)):
        lines.append(fields if isinstance(fields, str) else ",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no newline at end of file
    return text


def _reference_store(csv_path, chunk_size):
    """File name -> bytes of a fresh store built from the reference reader."""
    import io
    import json

    from repro.data.outofcore import INGEST_FORMAT

    user_map, item_map, rows = {}, {}, []
    for _, user, item, rating in reference_rating_rows(csv_path):
        rows.append((user_map.setdefault(user, len(user_map)),
                     item_map.setdefault(item, len(item_map)), rating))
    files, shards = {}, []
    for index, start in enumerate(range(0, len(rows), chunk_size)):
        chunk = rows[start : start + chunk_size]
        for column, dtype, values in zip(
            ("users", "items", "ratings"), (np.int64, np.int64, np.float64), zip(*chunk)
        ):
            buffer = io.BytesIO()
            np.save(buffer, np.asarray(values, dtype=dtype))
            name = f"shards/{column}_{index:05d}.npy"
            files[name] = buffer.getvalue()
            shards.append(name)

    def dump(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    files["user_ids.json"] = dump(list(user_map))
    files["item_ids.json"] = dump(list(item_map))
    files["manifest.json"] = dump({
        "format": INGEST_FORMAT, "n_ratings": len(rows), "n_users": len(user_map),
        "n_items": len(item_map), "revision": 1, "shard_size": chunk_size, "shards": shards,
    })
    return files


@settings(max_examples=100, deadline=None)
@given(text=rating_csv_text(), block_lines=st.integers(1, 3), chunk_size=st.integers(1, 5))
# Two errors in one block, the rating error first; valid rows precede it.
@example(text="1,2,3\n4,5,x\n6\n", block_lines=3, chunk_size=2)
# A header-like line opening a later block is an error, not a header.
@example(text="1,2,3\nu,i,r\n", block_lines=1, chunk_size=1)
# Spellings of one id within a block and across blocks, CRLF endings.
@example(text="user,item,rating\r\n01,+3,1\r\n1,3,2\r\n+1,٣,nan\r\n1_0,10", block_lines=3, chunk_size=2)
def test_block_parser_matches_the_per_line_reader(text, block_lines, chunk_size):
    """Same rows (ids, types, NaN ratings) or the same first error, at any block
    length; for valid files, a store byte-identical to the per-line ingest."""
    import tempfile
    from pathlib import Path
    from unittest import mock

    from repro.data import incremental
    from repro.data.outofcore import ingest_csv
    from repro.exceptions import DataFormatError

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        incremental, "_BLOCK_LINES", block_lines
    ):
        path = Path(tmp) / "ratings.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _drain(reference_rating_rows(path))
        got = _drain(incremental.iter_rating_rows(path))
        assert repr(got) == repr(expected)

        rows, error = expected
        if error is not None or not rows:
            with pytest.raises(DataFormatError):
                ingest_csv(path, Path(tmp) / "store", chunk_size=chunk_size)
            return
        ingest_csv(path, Path(tmp) / "store", chunk_size=chunk_size)
        store = Path(tmp) / "store"
        written = {
            str(file.relative_to(store)): file.read_bytes()
            for file in store.rglob("*")
            if file.is_file()
        }
        assert written == _reference_store(path, chunk_size)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
