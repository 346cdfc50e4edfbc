"""Delta-only artifact recompilation (``repro compile --update``).

The contracts under test:

* **Byte identity** — after an update, every shard file and every manifest
  field except ``revision`` equals a from-scratch compile of the extended
  dataset, for bare recommenders and GANC pipelines alike.
* **Delta-only writes** — shards whose rows did not change keep their
  inodes; only changed shards are rewritten and new-user shards appended.
* **Crash safety** — the manifest is swapped last, so an update that dies
  after rewriting shards leaves a live store serving the old revision byte
  for byte, and a re-run converges.
* **Compile robustness** — unique tmp names let two compiles share one
  artifact directory; ``covers`` answers instead of raising on garbage
  user arrays; ``load_manifest`` validates every key the store
  dereferences.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import repro.serving.update as update_module
from repro.cli import main
from repro.data import extend_split
from repro.exceptions import ConfigurationError, DataFormatError
from repro.pipeline import (
    ComponentSpec,
    EvaluationSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
)
from repro.recommenders.knn import ItemKNN
from repro.serving import (
    RecommendationStore,
    build_async_service,
    compile_artifact,
    compile_artifact_update,
    load_manifest,
    refit_pipeline,
    start_async_in_thread,
)

N = 5

#: A pipeline saved by the dense-gram ItemKNN that preceded the blocked scan
#: (``state.npz`` holds dense ``similarity_``, ``_abs_similarity`` and
#: ``_gram``), plus the rows its compiled artifact served (``rows.json``).
LEGACY_ITEMKNN = Path(__file__).resolve().parent / "data" / "legacy_itemknn_pipeline"


def _bare_spec(name: str) -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec(name), evaluation=EvaluationSpec(n=N), seed=0
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


def _rating_delta(split, size=30, seed=7):
    rng = np.random.default_rng(seed)
    return extend_split(
        split,
        rng.integers(0, split.train.n_users, size=size),
        rng.integers(0, split.train.n_items, size=size),
        np.ones(size),
    )


def _assert_same_artifact(updated: Path, scratch: Path) -> None:
    """Every byte equal except the manifest's revision counter."""
    left, right = load_manifest(updated), load_manifest(scratch)
    left.pop("revision"), right.pop("revision")
    assert left == right
    for entry_l, entry_r in zip(left["shards"], right["shards"]):
        for kind in ("items", "scores"):
            assert (updated / entry_l[kind]).read_bytes() == (
                scratch / entry_r[kind]
            ).read_bytes()


def _shard_inodes(artifact_dir: Path) -> dict[str, int]:
    return {
        path.name: path.stat().st_ino
        for path in (artifact_dir / "shards").iterdir()
        if path.suffix == ".npy"
    }


# --------------------------------------------------------------------------- #
# Byte identity of the update
# --------------------------------------------------------------------------- #
class TestUpdateByteIdentity:
    @pytest.mark.parametrize("spec_builder", [lambda: _bare_spec("pop"), _ganc_spec])
    def test_update_equals_scratch_compile_of_extension(
        self, tmp_path, small_split, spec_builder
    ):
        spec = spec_builder()
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(spec).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)

        ext = _rating_delta(small_split)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        report = compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        assert refit_report.kind == "delta"  # pop supports exact delta refits
        assert report.revision == 2

        scratch_dir = tmp_path / "scratch"
        compile_artifact(Pipeline(spec_builder()).fit(ext.split), scratch_dir, shard_size=16)
        _assert_same_artifact(artifact_dir, scratch_dir)

    @pytest.mark.parametrize("spec_builder", [lambda: _bare_spec("pop"), _ganc_spec])
    def test_compile_and_update_bytes_do_not_depend_on_n_jobs(
        self, tmp_path, small_split, spec_builder
    ):
        pipeline_dir = tmp_path / "pipeline"
        Pipeline(spec_builder()).fit(small_split).save(pipeline_dir)
        jobs = (1, 2, 3)
        artifacts = [tmp_path / f"artifact-{n_jobs}" for n_jobs in jobs]
        for artifact_dir, n_jobs in zip(artifacts, jobs):
            compile_artifact(
                pipeline_dir, artifact_dir, shard_size=16, block_size=7, n_jobs=n_jobs
            )
        for artifact_dir in artifacts[1:]:
            _assert_same_artifact(artifact_dir, artifacts[0])

        ext = _rating_delta(small_split)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        for artifact_dir, n_jobs in zip(artifacts, jobs):
            compile_artifact_update(
                refitted,
                artifact_dir,
                changed_users=ext.changed_users,
                state_changed=refit_report.state_changed,
                block_size=7,
                n_jobs=n_jobs,
            )
        for artifact_dir in artifacts[1:]:
            _assert_same_artifact(artifact_dir, artifacts[0])

    def test_update_with_full_refit_fallback(self, tmp_path, small_split):
        # UserKNN has no delta path; the fallback must still land on the
        # exact from-scratch bytes.
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("userknn")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)

        ext = _rating_delta(small_split, size=10)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        assert refit_report.kind == "full"
        compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        scratch_dir = tmp_path / "scratch"
        compile_artifact(
            Pipeline(_bare_spec("userknn")).fit(ext.split), scratch_dir, shard_size=16
        )
        _assert_same_artifact(artifact_dir, scratch_dir)

    def test_partial_artifact_stays_partial(self, tmp_path, small_split):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16, max_users=40)

        ext = _rating_delta(small_split)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        report = compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        assert report.n_users == 40
        scratch_dir = tmp_path / "scratch"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(ext.split),
            scratch_dir,
            shard_size=16,
            max_users=40,
        )
        _assert_same_artifact(artifact_dir, scratch_dir)


def _artifact_rows(artifact_dir: Path) -> tuple[list, list]:
    shards = load_manifest(artifact_dir)["shards"]
    items = np.concatenate([np.load(artifact_dir / entry["items"]) for entry in shards])
    scores = np.concatenate([np.load(artifact_dir / entry["scores"]) for entry in shards])
    return items.tolist(), scores.tolist()


class TestLegacyItemKNNPipeline:
    def test_loads_as_csr_and_serves_the_same_rows(self, tmp_path):
        pipeline = Pipeline.load(LEGACY_ITEMKNN / "pipeline")
        model = pipeline.recommender
        assert sparse.issparse(model.similarity_) and sparse.issparse(model._abs_similarity)
        assert "_gram" not in vars(model)
        expected = json.loads((LEGACY_ITEMKNN / "rows.json").read_text(encoding="utf-8"))
        compile_artifact(pipeline, tmp_path / "artifact")
        assert _artifact_rows(tmp_path / "artifact") == (expected["items"], expected["scores"])
        assert load_manifest(tmp_path / "artifact")["spec_sha256"] == expected["spec_sha256"]

        refitted = Pipeline(pipeline.spec).fit(pipeline.split)
        compile_artifact(refitted, tmp_path / "refitted")
        _assert_same_artifact(tmp_path / "artifact", tmp_path / "refitted")

    def test_accepts_compile_update_deltas(self, tmp_path):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        shutil.copytree(LEGACY_ITEMKNN / "pipeline", pipeline_dir)
        base = ["--pipeline", str(pipeline_dir), "--artifact", str(artifact_dir)]
        assert main(["compile", *base, "--shard-size", "8"]) == 0
        n_users = Pipeline.load(pipeline_dir).split.train.n_users

        # The first delta adds a str user id beside the int ones; the second
        # must still resolve the int ids to the existing users.
        for position, body in enumerate(("0,3,1.0\n1,7,2.0\nbrand-new-user,2,1.0\n", "4,5,3.0\n")):
            delta = tmp_path / f"delta{position}.csv"
            delta.write_text(body, encoding="utf-8")
            assert main(["compile", "--update", "--delta", str(delta), *base]) == 0

        updated = Pipeline.load(pipeline_dir)
        assert updated.split.train.n_users == n_users + 1
        assert load_manifest(artifact_dir)["revision"] == 3
        meta = json.loads((pipeline_dir / "manifest.json").read_text(encoding="utf-8"))
        assert not {"n_projections", "n_candidates", "seed"} & set(meta["recommender"]["meta"])
        with np.load(pipeline_dir / "state.npz") as state:
            assert "recommender._gram" not in state.files
        scratch = ItemKNN(5).fit(updated.split.train)
        assert (updated.recommender.similarity_ != scratch.similarity_).nnz == 0

        scratch_dir = tmp_path / "scratch"
        compile_artifact(Pipeline(updated.spec).fit(updated.split), scratch_dir, shard_size=8)
        _assert_same_artifact(artifact_dir, scratch_dir)


# --------------------------------------------------------------------------- #
# Delta-only shard writes
# --------------------------------------------------------------------------- #
class TestDeltaOnlyWrites:
    def test_cold_start_skips_unchanged_shards_and_appends(
        self, tmp_path, small_split
    ):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=32)  # [0,32) [32,64) [64,80)
        inodes_before = _shard_inodes(artifact_dir)

        # Pure arrival delta: the universe grows, no ratings change, so the
        # model state is bitwise unchanged and only new users need rows.
        ext = extend_split(
            small_split,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            n_users=100,
        )
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        assert refit_report.state_changed is False
        report = compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        assert report.users_recomputed == 20  # only the arrivals
        assert report.shards_skipped == 2
        assert report.shards_rewritten == 1  # [64,80) grew to [64,96)
        assert report.shards_appended == 1  # [96,100)

        inodes_after = _shard_inodes(artifact_dir)
        for name in ("items_00000.npy", "scores_00000.npy", "items_00001.npy", "scores_00001.npy"):
            assert inodes_after[name] == inodes_before[name]  # untouched files
        assert inodes_after["items_00002.npy"] != inodes_before["items_00002.npy"]

        scratch_dir = tmp_path / "scratch"
        compile_artifact(Pipeline(_bare_spec("pop")).fit(ext.split), scratch_dir, shard_size=32)
        _assert_same_artifact(artifact_dir, scratch_dir)

    def test_rerunning_an_update_converges_to_all_skipped(self, tmp_path, small_split):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)

        again = compile_artifact_update(pipeline_dir, artifact_dir)
        assert again.shards_rewritten == 0 and again.shards_appended == 0
        assert again.shards_skipped == len(load_manifest(artifact_dir)["shards"])
        assert again.revision == 2  # the manifest swap still happened

    def test_counts_partition_the_shards(self, tmp_path, small_split):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)

        ext = _rating_delta(small_split)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)
        report = compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        total = report.shards_skipped + report.shards_rewritten + report.shards_appended
        assert total == len(load_manifest(artifact_dir)["shards"])


# --------------------------------------------------------------------------- #
# Guard rails
# --------------------------------------------------------------------------- #
class TestUpdateValidation:
    def test_spec_mismatch_suggests_full_compile(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        other = Pipeline(_bare_spec("itemknn")).fit(small_split)
        with pytest.raises(ConfigurationError, match="full repro compile"):
            compile_artifact_update(other, artifact_dir)

    def test_shrunken_dataset_rejected(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        ext = extend_split(
            small_split,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0),
            n_users=90,
        )
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(ext.split), artifact_dir, shard_size=16
        )
        smaller = Pipeline(_bare_spec("pop")).fit(small_split)
        with pytest.raises(ConfigurationError, match="extension"):
            compile_artifact_update(smaller, artifact_dir)

    def test_unfitted_pipeline_rejected(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        with pytest.raises(ConfigurationError, match="fitted"):
            compile_artifact_update(Pipeline(_bare_spec("pop")), artifact_dir)


# --------------------------------------------------------------------------- #
# Crash safety and warm reload
# --------------------------------------------------------------------------- #
class TestCrashSafetyAndReload:
    def test_crash_before_manifest_swap_keeps_old_revision_live(
        self, tmp_path, small_split, monkeypatch
    ):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)

        store = RecommendationStore(artifact_dir)
        users = np.arange(store.coverage, dtype=np.int64)
        before_rows = store.top_n(users).copy()
        assert store.revision == 1

        ext = _rating_delta(small_split)
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), ext.split)

        def _boom(path, payload):
            raise OSError("simulated crash between shard rewrite and manifest swap")

        # Shards are rewritten first; the manifest swap is the commit point.
        monkeypatch.setattr(update_module, "_atomic_write_json", _boom)
        with pytest.raises(OSError, match="simulated crash"):
            compile_artifact_update(
                refitted,
                artifact_dir,
                changed_users=ext.changed_users,
                state_changed=refit_report.state_changed,
            )
        monkeypatch.undo()

        # The live store's maps still point at the old (renamed-over) inodes:
        # it serves the old revision byte-identically, no reload required.
        np.testing.assert_array_equal(store.top_n(users), before_rows)
        assert store.revision == 1
        assert load_manifest(artifact_dir)["revision"] == 1  # swap never happened

        # Re-running the interrupted update converges: the crashed run's shard
        # bytes are already on disk, so everything is skipped and the manifest
        # swap completes.
        report = compile_artifact_update(
            refitted,
            artifact_dir,
            changed_users=ext.changed_users,
            state_changed=refit_report.state_changed,
        )
        assert report.shards_rewritten + report.shards_appended >= 0
        assert report.revision == 2

        store.reload()
        assert store.revision == 2
        scratch = Pipeline(_bare_spec("pop")).fit(ext.split)
        np.testing.assert_array_equal(store.top_n(users), scratch.recommend_all(N).items)

    def test_warm_reload_surfaces_the_new_revision(self, tmp_path, small_split):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)
        store = RecommendationStore(artifact_dir)
        assert store.revision == 1

        compile_artifact_update(pipeline_dir, artifact_dir)
        assert store.revision == 1  # not yet reloaded
        store.reload()
        assert store.revision == 2

    def test_revision_defaults_to_one_for_old_artifacts(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        manifest_path = artifact_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["revision"]
        manifest_path.write_text(json.dumps(manifest))
        store = RecommendationStore(artifact_dir)
        assert store.revision == 1


# --------------------------------------------------------------------------- #
# Concurrent compiles into one directory (tmp-name collision regression)
# --------------------------------------------------------------------------- #
class TestConcurrentCompile:
    def test_two_threads_compiling_one_directory(self, tmp_path, small_split):
        pipeline_a = Pipeline(_bare_spec("pop")).fit(small_split)
        pipeline_b = Pipeline(_bare_spec("pop")).fit(small_split)
        artifact_dir = tmp_path / "artifact"

        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def compile_one(pipeline):
            try:
                barrier.wait(timeout=30)
                compile_artifact(pipeline, artifact_dir, shard_size=4)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=compile_one, args=(p,))
            for p in (pipeline_a, pipeline_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []

        # Both compiles produce identical bytes, so whichever manifest swap
        # landed last, the directory must be a fully consistent artifact.
        store = RecommendationStore(artifact_dir)
        np.testing.assert_array_equal(
            store.top_n(np.arange(store.coverage)), pipeline_a.recommend_all(N).items
        )
        leftovers = [p.name for p in (artifact_dir / "shards").iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# covers() robustness (routing predicate must answer, not raise)
# --------------------------------------------------------------------------- #
class TestCoversRobustness:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, small_split):
        artifact_dir = tmp_path_factory.mktemp("covers-artifact")
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        return RecommendationStore(artifact_dir)

    @pytest.mark.parametrize(
        "users",
        [
            float("nan"),
            np.asarray([float("nan")]),
            np.asarray([1.0, float("nan")]),
            np.asarray(["zero", "one"], dtype=object),
            np.asarray([None], dtype=object),
            10**30,
            np.asarray([10**30]),
        ],
        ids=["nan-scalar", "nan-array", "nan-mixed", "object-str", "object-none",
             "overflow-int", "overflow-array"],
    )
    def test_garbage_users_route_to_false(self, store, users):
        assert store.covers(users) is False
        assert store.covers(users, N) is False

    def test_valid_inputs_still_route_true(self, store):
        assert store.covers(0) is True
        assert store.covers(np.asarray([0, 1, 2])) is True
        assert store.covers(np.asarray([1.0, 2.0])) is True  # coercible floats


class TestBadUsersThroughHTTP:
    def test_get_rejects_non_integer_user_with_400(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        handle = start_async_in_thread(build_async_service(artifact_dir))
        try:
            for query in ("user=NaN", "user=abc", "user=1.5"):
                conn = http.client.HTTPConnection(*handle.address, timeout=30)
                try:
                    conn.request("GET", f"/recommend?{query}")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 400, query
                finally:
                    conn.close()
        finally:
            handle.stop()

    def test_batch_rejects_non_integer_users_with_400(self, tmp_path, small_split):
        artifact_dir = tmp_path / "artifact"
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        handle = start_async_in_thread(build_async_service(artifact_dir))
        try:
            host, port = handle.address
            bodies = [
                json.dumps({"users": [float("nan")]}),  # serialized as bare NaN
                json.dumps({"users": ["zero"]}),
                json.dumps({"users": [True]}),
            ]
            for body in bodies:
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    conn.request(
                        "POST",
                        "/recommend/batch",
                        body=body.encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 400
                finally:
                    conn.close()
        finally:
            handle.stop()


# --------------------------------------------------------------------------- #
# load_manifest validation
# --------------------------------------------------------------------------- #
class TestManifestValidation:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory, small_split):
        artifact_dir = tmp_path_factory.mktemp("manifest-base")
        compile_artifact(
            Pipeline(_bare_spec("pop")).fit(small_split), artifact_dir, shard_size=16
        )
        return load_manifest(artifact_dir)

    def _write(self, tmp_path: Path, manifest: dict) -> Path:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path

    @pytest.mark.parametrize("key", ["n", "n_items", "n_users", "shard_size", "shards"])
    def test_missing_top_level_key_names_file_and_key(self, tmp_path, manifest, key):
        broken = dict(manifest)
        del broken[key]
        with pytest.raises(DataFormatError, match=f"manifest.json is missing '{key}'"):
            load_manifest(self._write(tmp_path, broken))

    @pytest.mark.parametrize("key", ["items", "scores", "start", "stop"])
    def test_missing_shard_key_names_position_and_key(self, tmp_path, manifest, key):
        broken = dict(manifest)
        shards = [dict(entry) for entry in broken["shards"]]
        del shards[1][key]
        broken["shards"] = shards
        with pytest.raises(DataFormatError, match=f"shard 1 .* is missing '{key}'"):
            load_manifest(self._write(tmp_path, broken))

    def test_non_list_shards_rejected(self, tmp_path, manifest):
        broken = dict(manifest)
        broken["shards"] = {"0": broken["shards"][0]}
        with pytest.raises(DataFormatError, match="non-list 'shards'"):
            load_manifest(self._write(tmp_path, broken))

    def test_non_object_shard_entry_rejected(self, tmp_path, manifest):
        broken = dict(manifest)
        broken["shards"] = [broken["shards"][0], "items_00001.npy"]
        with pytest.raises(DataFormatError, match="shard 1 .* is not an object"):
            load_manifest(self._write(tmp_path, broken))


# --------------------------------------------------------------------------- #
# CLI end to end
# --------------------------------------------------------------------------- #
class TestCliUpdate:
    def test_compile_update_delta_round_trip(self, tmp_path, small_split, capsys):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        assert main(
            ["compile", "--pipeline", str(pipeline_dir),
             "--artifact", str(artifact_dir), "--shard-size", "16"]
        ) == 0

        train = small_split.train
        delta = tmp_path / "delta.csv"
        delta.write_text(
            "user,item,rating\n"
            f"{train.user_ids[0]},{train.item_ids[3]},1.0\n"
            f"{train.user_ids[1]},{train.item_ids[7]},1.0\n"
            "brand-new-user,brand-new-item,1.0\n"
        )
        assert main(
            [
                "compile", "--update", "--delta", str(delta),
                "--pipeline", str(pipeline_dir), "--artifact", str(artifact_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "revision 2" in out
        assert load_manifest(artifact_dir)["revision"] == 2

        # The pipeline directory was refitted and saved back in place: the
        # updated artifact equals a from-scratch compile of that pipeline.
        scratch_dir = tmp_path / "scratch"
        compile_artifact(pipeline_dir, scratch_dir, shard_size=16)
        _assert_same_artifact(artifact_dir, scratch_dir)

    def test_update_flag_combinations_rejected(self, tmp_path, small_split):
        pipeline_dir = tmp_path / "pipeline"
        artifact_dir = tmp_path / "artifact"
        Pipeline(_bare_spec("pop")).fit(small_split).save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=16)
        base = ["compile", "--pipeline", str(pipeline_dir), "--artifact", str(artifact_dir)]
        with pytest.raises(ConfigurationError, match="--delta requires --update"):
            main(base + ["--delta", "whatever.csv"])
        for flag, value in (("--n", "3"), ("--shard-size", "8"), ("--max-users", "10")):
            with pytest.raises(ConfigurationError, match="cannot be changed by --update"):
                main(base + ["--update", flag, value])
