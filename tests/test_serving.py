"""Serving layer: artifact compile, store lookups, fallback and HTTP.

The contract under test is byte-identity: every lookup a
:class:`RecommendationStore` answers — memory-mapped artifact row or live
fallback — must be exactly the row ``Pipeline.recommend_all`` produces for
the same persisted pipeline, for every registered recommender family and
for GANC pipelines.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError, DataFormatError, ServingError
from repro.pipeline import (
    ComponentSpec,
    EvaluationSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
)
from repro.registry import available
from repro.serving import (
    ARTIFACT_FORMAT_VERSION,
    RecommendationStore,
    build_async_service,
    compile_artifact,
    load_manifest,
    serving_environment,
    spec_hash,
    start_async_in_thread,
)
from repro.serving.service import json_body, recommend_body

N = 5


def _bare_spec(name: str, **overrides) -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec(name),
        evaluation=EvaluationSpec(n=N),
        seed=0,
        **overrides,
    )


def _ganc_spec() -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec("pop"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=16, optimizer="oslg"),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )


@pytest.fixture(scope="module")
def pop_pipeline_dir(tmp_path_factory, small_split) -> Path:
    """A saved bare-Pop pipeline shared by the store/HTTP tests."""
    directory = tmp_path_factory.mktemp("pipeline-pop")
    Pipeline(_bare_spec("pop")).fit(small_split).save(directory)
    return directory


@pytest.fixture(scope="module")
def pop_artifact_dir(tmp_path_factory, pop_pipeline_dir) -> Path:
    """A compiled artifact of the shared Pop pipeline (small shards)."""
    directory = tmp_path_factory.mktemp("artifact-pop")
    compile_artifact(pop_pipeline_dir, directory, shard_size=16)
    return directory


# --------------------------------------------------------------------------- #
# Byte-identity: every registered recommender family
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(available("recommender")))
def test_artifact_lookups_match_recommend_all(name, small_split, tmp_path):
    pipeline = Pipeline(_bare_spec(name)).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=13)

    reference = pipeline.recommend_all(N).items
    store = RecommendationStore(tmp_path / "art")
    got = store.top_n(np.arange(reference.shape[0]), N)
    np.testing.assert_array_equal(got, reference, err_msg=name)
    # Single-user lookups are rows of the same table.
    for user in (0, 7, reference.shape[0] - 1):
        np.testing.assert_array_equal(store.top_n(user, N), reference[user])
    assert store.stats["fallback_rows"] == 0


def test_ganc_artifact_matches_recommend_all(small_split, tmp_path):
    pipeline = Pipeline(_ganc_spec()).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=9)

    reference = pipeline.recommend_all(N).items
    store = RecommendationStore(tmp_path / "art")
    np.testing.assert_array_equal(store.top_n(np.arange(reference.shape[0])), reference)

    manifest = load_manifest(tmp_path / "art")
    assert manifest["mode"] == "ganc"
    assert manifest["prefix_consistent"] is False


def test_parallel_compile_matches_serial(small_split, tmp_path):
    pipeline = Pipeline(_bare_spec("psvd10")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "serial", shard_size=11)
    compile_artifact(
        tmp_path / "pipe", tmp_path / "threaded",
        shard_size=11, n_jobs=3, block_size=7,
    )
    for entry in load_manifest(tmp_path / "serial")["shards"]:
        serial = (tmp_path / "serial" / entry["items"]).read_bytes()
        threaded = (tmp_path / "threaded" / entry["items"]).read_bytes()
        assert serial == threaded


# --------------------------------------------------------------------------- #
# Prefix slicing and fallback
# --------------------------------------------------------------------------- #
def test_bare_recommender_prefix_slice_matches_smaller_n(small_split, pop_artifact_dir):
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    store = RecommendationStore(pop_artifact_dir)
    for smaller in (1, 3):
        reference = pipeline.recommend_all(smaller).items
        np.testing.assert_array_equal(
            store.top_n(np.arange(reference.shape[0]), smaller), reference
        )
    assert store.stats["fallback_rows"] == 0


def test_ganc_smaller_n_falls_back_to_live_scoring(small_split, tmp_path):
    pipeline = Pipeline(_ganc_spec()).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(pipeline, tmp_path / "art")

    store = RecommendationStore(tmp_path / "art", pipeline=tmp_path / "pipe")
    reference = pipeline.recommend_all(3).items
    got, scores, source = store.lookup(np.arange(reference.shape[0]), 3)
    np.testing.assert_array_equal(got, reference)
    assert source == "live" and scores is None
    assert store.stats["fallback_builds"] == 1


def test_uncovered_users_serve_from_fallback(small_split, tmp_path):
    pipeline = Pipeline(_bare_spec("rand")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    n_users = small_split.train.n_users
    compile_artifact(tmp_path / "pipe", tmp_path / "art", max_users=n_users // 2, shard_size=8)

    reference = pipeline.recommend_all(N).items
    store = RecommendationStore(tmp_path / "art", pipeline=tmp_path / "pipe")
    assert store.coverage == n_users // 2 < store.n_users_total

    got, _, source = store.lookup(np.arange(n_users), N)
    np.testing.assert_array_equal(got, reference)
    assert source == "mixed"
    assert store.stats["artifact_rows"] == n_users // 2
    assert store.stats["fallback_rows"] == n_users - n_users // 2


def test_fallback_n_matches_live_scoring(small_split, pop_pipeline_dir, pop_artifact_dir):
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    store = RecommendationStore(pop_artifact_dir, pipeline=pop_pipeline_dir)
    bigger = N + 3  # beyond the compiled n -> live fallback
    reference = pipeline.recommend_all(bigger).items
    np.testing.assert_array_equal(store.top_n(np.arange(reference.shape[0]), bigger), reference)


def test_fallback_without_pipeline_raises(pop_artifact_dir):
    store = RecommendationStore(pop_artifact_dir)
    with pytest.raises(ServingError, match="no\\s+fallback pipeline"):
        store.top_n(0, N + 1)


def test_concurrent_fallback_builds_serialize(small_split, tmp_path):
    """Concurrent fallback lookups on a dyn-coverage GANC store are safe.

    ``recommend_all`` on a dynamic-coverage pipeline mutates shared
    optimizer state, so overlapping builds used to corrupt each other's
    tables; the store must serialize them (and, as a side effect, dedupe
    same-``n`` builds instead of racing).
    """
    pipeline = Pipeline(_ganc_spec()).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(pipeline, tmp_path / "art")
    users = np.arange(small_split.train.n_users, dtype=np.int64)
    bigger = N + 5  # beyond the compiled n -> every row needs the fallback
    reference = pipeline.recommend_all(bigger).items

    for _ in range(3):
        store = RecommendationStore(tmp_path / "art", pipeline=tmp_path / "pipe")
        results: list[np.ndarray | None] = [None] * 4
        threads = [
            threading.Thread(
                target=lambda slot=slot: results.__setitem__(
                    slot, store.top_n(users, bigger)
                )
            )
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got in results:
            np.testing.assert_array_equal(got, reference)
        assert store.stats["fallback_builds"] == 1


def test_fallback_lru_evicts_oldest_table(pop_pipeline_dir, pop_artifact_dir):
    store = RecommendationStore(
        pop_artifact_dir, pipeline=pop_pipeline_dir, fallback_cache_size=1
    )
    store.top_n(0, N + 1)
    store.top_n(0, N + 2)
    store.top_n(0, N + 1)  # evicted, rebuilt
    assert store.stats["fallback_builds"] == 3
    store.top_n(0, N + 1)  # cached now
    assert store.stats["fallback_builds"] == 3


def test_n_beyond_item_universe_is_rejected(small_split, pop_pipeline_dir, pop_artifact_dir):
    """Absurd n must fail fast, not allocate an (n_users x n) fallback table."""
    store = RecommendationStore(pop_artifact_dir, pipeline=pop_pipeline_dir)
    with pytest.raises(ConfigurationError, match="item universe"):
        store.top_n(0, small_split.train.n_items + 1)


def test_recompile_removes_stale_shards_and_old_state_survives(small_split, tmp_path):
    """In-place recompile: atomic renames + stale-shard cleanup + live maps."""
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=8)
    store = RecommendationStore(tmp_path / "art")
    users = np.arange(small_split.train.n_users)
    reference = store.top_n(users, N)

    # Coarser layout -> fewer shard files; the old ones must be deleted.
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=64)
    manifest = load_manifest(tmp_path / "art")
    on_disk = sorted(p.name for p in (tmp_path / "art" / "shards").iterdir())
    referenced = sorted(
        entry[kind].split("/")[-1] for entry in manifest["shards"] for kind in ("items", "scores")
    )
    assert on_disk == referenced

    # The store's pre-recompile state still serves the old (identical) rows
    # from its unlinked inodes, and a reload picks the new layout up.
    np.testing.assert_array_equal(store.top_n(users, N), reference)
    store.reload()
    assert int(store.manifest["shard_size"]) == 64
    np.testing.assert_array_equal(store.top_n(users, N), reference)


def test_user_out_of_range_raises(pop_artifact_dir):
    store = RecommendationStore(pop_artifact_dir)
    with pytest.raises(ServingError, match="out of range"):
        store.top_n(store.n_users_total)
    with pytest.raises(ServingError, match="out of range"):
        store.top_n(-1)


def test_spec_hash_ignores_execution_section(small_split, tmp_path):
    """Execution is mechanism: a --jobs override must not orphan an artifact."""
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    # Compiling with an executor override mutates the in-memory spec's
    # execution section; the artifact must still accept the saved pipeline.
    compile_artifact(tmp_path / "pipe", tmp_path / "art", n_jobs=2)
    store = RecommendationStore(tmp_path / "art", pipeline=tmp_path / "pipe")
    np.testing.assert_array_equal(
        store.top_n(np.arange(small_split.train.n_users), N),
        pipeline.recommend_all(N).items,
    )


def test_spec_mismatch_is_rejected(small_split, pop_artifact_dir, tmp_path):
    Pipeline(_bare_spec("rand")).fit(small_split).save(tmp_path / "other")
    with pytest.raises(ConfigurationError, match="does not match"):
        RecommendationStore(pop_artifact_dir, pipeline=tmp_path / "other")


def test_compile_executor_override_does_not_mutate_caller_pipeline(small_split, tmp_path):
    """The --jobs override applies for the duration of the compile only."""
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    before = pipeline.spec.execution
    compile_artifact(pipeline, tmp_path / "art", n_jobs=3)
    assert pipeline.spec.execution == before


def test_failed_reload_keeps_previous_state(small_split, tmp_path):
    """A reload that fails validation must leave the old state fully serving."""
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=16)
    store = RecommendationStore(tmp_path / "art", pipeline=tmp_path / "pipe")
    reference = store.top_n(np.arange(small_split.train.n_users), N)

    # Recompile the artifact in place from a *different* spec: the reload
    # must reject it atomically instead of half-swapping manifests.
    other = Pipeline(_bare_spec("rand")).fit(small_split)
    compile_artifact(other, tmp_path / "art", shard_size=16)
    with pytest.raises(ConfigurationError, match="does not match"):
        store.reload()
    np.testing.assert_array_equal(
        store.top_n(np.arange(small_split.train.n_users), N), reference
    )


# --------------------------------------------------------------------------- #
# Artifact format
# --------------------------------------------------------------------------- #
def test_manifest_records_layout_hash_and_environment(small_split, pop_pipeline_dir, pop_artifact_dir):
    manifest = load_manifest(pop_artifact_dir)
    assert manifest["format"] == ARTIFACT_FORMAT_VERSION
    assert manifest["n"] == N
    assert manifest["n_items"] == small_split.train.n_items
    assert manifest["mode"] == "recommender"
    assert manifest["environment"] == serving_environment()
    assert len(manifest["spec_sha256"]) == 64
    assert manifest["spec_sha256"] == spec_hash(Pipeline.load(pop_pipeline_dir))

    n_users = small_split.train.n_users
    stops = [shard["stop"] for shard in manifest["shards"]]
    starts = [shard["start"] for shard in manifest["shards"]]
    assert starts[0] == 0 and stops[-1] == n_users
    assert starts[1:] == stops[:-1]
    for shard in manifest["shards"]:
        items = np.load(pop_artifact_dir / shard["items"], mmap_mode="r")
        scores = np.load(pop_artifact_dir / shard["scores"], mmap_mode="r")
        assert items.shape == (shard["stop"] - shard["start"], N)
        assert items.dtype == np.int64
        assert scores.shape == items.shape


def test_scores_are_the_recommenders_raw_scores(small_split, tmp_path):
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    compile_artifact(pipeline, tmp_path / "art", shard_size=1000)
    manifest = load_manifest(tmp_path / "art")
    items = np.load(tmp_path / "art" / manifest["shards"][0]["items"])
    scores = np.load(tmp_path / "art" / manifest["shards"][0]["scores"])
    matrix = pipeline.recommender.predict_matrix(None)
    valid = items >= 0
    expected = np.take_along_axis(matrix, np.where(valid, items, 0), axis=1)
    np.testing.assert_array_equal(scores[valid], expected[valid])
    assert np.isnan(scores[~valid]).all()


def test_unsupported_format_version_rejected(pop_artifact_dir, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    manifest = load_manifest(pop_artifact_dir)
    manifest["format"] = 999
    (broken / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(DataFormatError, match="unsupported artifact format"):
        RecommendationStore(broken)


def test_compile_rejects_bad_arguments(small_split, tmp_path):
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    with pytest.raises(ConfigurationError, match="shard_size"):
        compile_artifact(pipeline, tmp_path / "a", shard_size=0)
    with pytest.raises(ConfigurationError, match="n must be"):
        compile_artifact(pipeline, tmp_path / "a", n=0)
    with pytest.raises(ConfigurationError, match="max_users"):
        compile_artifact(pipeline, tmp_path / "a", max_users=0)
    with pytest.raises(ConfigurationError, match="fitted"):
        compile_artifact(Pipeline(_bare_spec("pop")), tmp_path / "a")


def test_compile_cli_round_trip(small_split, pop_pipeline_dir, tmp_path):
    """`repro compile` writes the same artifact the library call does."""
    exit_code = main(
        [
            "compile",
            "--pipeline", str(pop_pipeline_dir),
            "--artifact", str(tmp_path / "art"),
            "--shard-size", "16",
        ]
    )
    assert exit_code == 0
    reference = Pipeline(_bare_spec("pop")).fit(small_split).recommend_all(N).items
    store = RecommendationStore(tmp_path / "art")
    np.testing.assert_array_equal(store.top_n(np.arange(reference.shape[0])), reference)


# --------------------------------------------------------------------------- #
# HTTP round trip
# --------------------------------------------------------------------------- #
@pytest.fixture()
def live_server(pop_pipeline_dir, pop_artifact_dir):
    """A serving HTTP server on an ephemeral port, torn down after the test."""
    handle = start_async_in_thread(
        build_async_service(pop_artifact_dir, pipeline=pop_pipeline_dir)
    )
    try:
        yield handle, handle.base_url
    finally:
        handle.stop()


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


def test_http_recommend_matches_recommend_all(small_split, live_server):
    _, base = live_server
    reference = Pipeline(_bare_spec("pop")).fit(small_split).recommend_all(N)
    for user in (0, 3, small_split.train.n_users - 1):
        payload = _get_json(f"{base}/recommend?user={user}&n={N}")
        assert payload["items"] == [int(i) for i in reference.for_user(user)]
        assert payload["source"] == "artifact"
        assert len(payload["scores"]) == len(payload["items"])
    # n defaults to the artifact's compiled n
    payload = _get_json(f"{base}/recommend?user=0")
    assert payload["n"] == N


def test_http_fallback_lookup(small_split, live_server):
    _, base = live_server
    reference = Pipeline(_bare_spec("pop")).fit(small_split).recommend_all(N + 2)
    payload = _get_json(f"{base}/recommend?user=2&n={N + 2}")
    assert payload["items"] == [int(i) for i in reference.for_user(2)]
    assert payload["source"] == "live"
    assert payload["scores"] is None


def test_http_healthz_and_manifest(live_server, pop_artifact_dir):
    _, base = live_server
    health = _get_json(f"{base}/healthz")
    assert health["status"] == "ok"
    assert health["n"] == N
    assert health["reloads"] == 0
    assert health["reload_failures"] == 0
    assert set(health["served"]) == {"artifact_rows", "fallback_rows", "fallback_builds"}
    assert _get_json(f"{base}/manifest") == load_manifest(pop_artifact_dir)


def test_http_error_statuses(live_server):
    _, base = live_server
    for path, status in (
        ("/nope", 404),
        ("/recommend", 400),
        ("/recommend?user=abc", 400),
        ("/recommend?user=99999", 404),
        ("/recommend?user=0&n=0", 400),
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(f"{base}{path}")
        assert excinfo.value.code == status, path
        assert "error" in json.loads(excinfo.value.read().decode("utf-8"))


def test_warm_reload_keeps_serving(live_server):
    handle, base = live_server
    before = _get_json(f"{base}/recommend?user=1")
    # What the SIGHUP handler invokes; it is queued on the event loop ahead
    # of the requests below.
    handle.reload()
    after = _get_json(f"{base}/recommend?user=1")
    assert before["items"] == after["items"]
    assert _get_json(f"{base}/healthz")["reloads"] == 1


# --------------------------------------------------------------------------- #
# Payload encoding and the routing predicate
# --------------------------------------------------------------------------- #
def test_recommend_body_is_byte_identical_to_json_body():
    """The hand-rolled /recommend encoder must track json.dumps exactly."""
    payloads = [
        {"user": 0, "n": 5, "items": [3, 1, 2], "scores": [1.5, 0.25, -0.0],
         "source": "artifact"},
        {"user": 10**12, "n": 1, "items": [], "scores": [], "source": "artifact"},
        {"user": 7, "n": 3, "items": [1, 2, 9], "scores": None, "source": "live"},
        {"user": -1, "n": 2, "items": [0], "scores": [None], "source": "live"},
        {"user": 3, "n": 4, "items": [5, 6],
         "scores": [1e-07, 123456789.123456789], "source": "artifact"},
        {"user": 2, "n": 2, "items": [8, 9], "scores": [1e16, 3.0], "source": "mixed"},
    ]
    for payload in payloads:
        assert recommend_body(payload) == json_body(payload), payload


def test_covers_routing_predicate(small_split, pop_pipeline_dir, pop_artifact_dir):
    """covers() approves exactly the lookups the mapped shards can answer."""
    store = RecommendationStore(pop_artifact_dir, pipeline=pop_pipeline_dir)
    last = store.coverage - 1
    assert store.covers(0, N) and store.covers(last, N)
    assert store.covers(0)  # n defaults to the artifact's n
    assert store.covers(0, 3)  # prefix slice of a consistent artifact
    assert store.covers(np.array([0, last]), N)
    assert store.covers(np.array([], dtype=np.int64), N)
    assert not store.covers(-1, N)
    assert not store.covers(store.coverage, N)
    assert not store.covers(0, 0)
    assert not store.covers(0, N + 1)  # live fallback territory
    assert not store.covers(0, small_split.train.n_items + 1)
    assert not store.covers(0, "not-an-n")
    assert not store.covers(np.array([0, store.coverage]), N)
