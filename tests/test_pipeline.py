"""Tests for the Pipeline lifecycle and fitted-pipeline persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.data.incremental import extend_split_interactions
from repro.evaluation.evaluator import Evaluator
from repro.exceptions import ConfigurationError, DataFormatError, NotFittedError
from repro.ganc.framework import GANC, GANCConfig
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    Pipeline,
    PipelineSpec,
    ganc_spec,
)
from repro.pipeline.persistence import load_split_npz, save_split_npz
from repro.preferences.generalized import GeneralizedPreference
from repro.recommenders.puresvd import PureSVD
from repro.recommenders.registry import make_recommender


def _ganc_pipeline_spec(**overrides) -> PipelineSpec:
    base = dict(
        dataset="ml100k", arec="psvd10", theta="thetaG", coverage="dyn",
        n=5, sample_size=25, optimizer="oslg", scale=0.2, seed=0,
    )
    base.update(overrides)
    return ganc_spec(**base)


# --------------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------------- #
def test_pipeline_matches_hand_wired_ganc(small_split):
    spec = _ganc_pipeline_spec()
    pipeline = Pipeline(spec).fit(small_split)
    via_pipeline = pipeline.recommend_all()

    arec = make_recommender("psvd10", seed=0, scale_hint=0.2)
    model = GANC(
        arec,
        GeneralizedPreference(),
        DynamicCoverage(),
        config=GANCConfig(
            sample_size=min(25, small_split.train.n_users), optimizer="oslg", seed=0
        ),
    )
    model.fit(small_split.train)
    assert np.array_equal(via_pipeline.items, model.recommend_all(5).items)
    assert pipeline.algorithm == model.template


def test_bare_recommender_pipeline(small_split):
    spec = PipelineSpec(
        recommender=ComponentSpec("pop"),
        dataset=DatasetSpec(key="ml100k", scale=0.2),
        evaluation=EvaluationSpec(n=4),
        seed=0,
    )
    pipeline = Pipeline(spec).fit(small_split)
    recs = pipeline.recommend_all()
    reference = make_recommender("pop").fit(small_split.train).recommend_all(4)
    assert np.array_equal(recs.items, reference.items)
    assert pipeline.algorithm == "MostPopular"
    assert pipeline.model is None


def test_fit_loads_spec_dataset_when_no_data_given():
    spec = PipelineSpec(
        recommender=ComponentSpec("pop"),
        dataset=DatasetSpec(key="ml100k", scale=0.15),
        seed=0,
    )
    pipeline = Pipeline(spec).fit()
    assert pipeline.split.train.n_users > 0


def test_fit_rejects_raw_datasets(small_dataset):
    pipeline = Pipeline(PipelineSpec(recommender=ComponentSpec("pop")))
    with pytest.raises(ConfigurationError, match="TrainTestSplit"):
        pipeline.fit(small_dataset)


def test_unfitted_pipeline_refuses_to_serve():
    pipeline = Pipeline(PipelineSpec(recommender=ComponentSpec("pop")))
    with pytest.raises(NotFittedError):
        pipeline.recommend_all()
    with pytest.raises(NotFittedError):
        _ = pipeline.algorithm


def test_recommend_single_and_block(small_split):
    spec = _ganc_pipeline_spec()
    pipeline = Pipeline(spec).fit(small_split)
    single = pipeline.recommend(0)
    assert single.ndim == 1 and single.size <= 5
    block = pipeline.recommend(np.array([0, 1, 2]))
    assert block.shape == (3, 5)

    bare = Pipeline(
        PipelineSpec(recommender=ComponentSpec("pop"), seed=0)
    ).fit(small_split)
    assert bare.recommend(np.array([0, 1])).shape == (2, 5)
    assert np.array_equal(bare.recommend(1), bare.recommend_all().items[1])


def test_evaluate_uses_spec_conditions(small_split):
    spec = _ganc_pipeline_spec()
    pipeline = Pipeline(spec).fit(small_split)
    run = pipeline.evaluate()
    assert run.algorithm == pipeline.algorithm
    reference = Evaluator(small_split, n=5).evaluate_recommendations(
        pipeline.recommend_all(), algorithm=pipeline.algorithm
    )
    assert run.report.as_dict() == reference.report.as_dict()


def test_injected_fitted_recommender_is_reused(small_split):
    arec = make_recommender("psvd10", seed=0, scale_hint=0.2).fit(small_split.train)
    factors_before = arec.user_factors_
    pipeline = Pipeline(_ganc_pipeline_spec(), recommender=arec).fit(small_split)
    assert pipeline.recommender is arec
    assert pipeline.recommender.user_factors_ is factors_before


def test_injected_preference_result_is_used(small_split):
    theta = GeneralizedPreference().estimate(small_split.train)
    pipeline = Pipeline(_ganc_pipeline_spec(), preference=theta).fit(small_split)
    assert np.array_equal(pipeline.model.theta, theta.theta)


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("arec", ["pop", "rand", "psvd10", "rsvd", "itemknn", "userknn"])
def test_save_load_reproduces_byte_identical_topn(tmp_path, small_split, arec):
    pipeline = Pipeline(_ganc_pipeline_spec(arec=arec)).fit(small_split)
    expected = pipeline.recommend_all()
    pipeline.save(tmp_path / "artifact")
    reloaded = Pipeline.load(tmp_path / "artifact")
    assert np.array_equal(reloaded.recommend_all().items, expected.items)


def test_load_does_not_refit_models(tmp_path, small_split, monkeypatch):
    pipeline = Pipeline(_ganc_pipeline_spec()).fit(small_split)
    expected = pipeline.recommend_all()
    pipeline.save(tmp_path / "artifact")

    def explode(self, *args, **kwargs):
        raise AssertionError("model was refitted on load")

    monkeypatch.setattr(PureSVD, "fit", explode)
    monkeypatch.setattr(GeneralizedPreference, "estimate", explode)
    reloaded = Pipeline.load(tmp_path / "artifact")
    assert np.array_equal(reloaded.recommend_all().items, expected.items)


def test_saved_artifact_evaluates_identically(tmp_path, small_split):
    pipeline = Pipeline(_ganc_pipeline_spec()).fit(small_split)
    original = pipeline.evaluate().report.as_dict()
    pipeline.save(tmp_path / "artifact")
    reloaded = Pipeline.load(tmp_path / "artifact")
    assert reloaded.evaluate().report.as_dict() == original
    assert reloaded.algorithm == pipeline.algorithm


def test_bare_pipeline_save_load(tmp_path, small_split):
    spec = PipelineSpec(recommender=ComponentSpec("rsvd"), seed=0)
    pipeline = Pipeline(spec).fit(small_split)
    expected = pipeline.recommend_all()
    pipeline.save(tmp_path / "bare")
    reloaded = Pipeline.load(tmp_path / "bare")
    assert np.array_equal(reloaded.recommend_all().items, expected.items)

    # The manifest is replaced in one step, in the sorted two-space layout,
    # and a save over the same directory writes the same bytes.
    manifest_path = tmp_path / "bare" / "manifest.json"
    first = manifest_path.read_text(encoding="utf-8")
    assert json.loads(first)["format"] == 2
    assert first == json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
    reloaded.save(tmp_path / "bare")
    assert manifest_path.read_text(encoding="utf-8") == first
    assert not list((tmp_path / "bare").glob("*.tmp"))


def test_split_round_trips_mixed_int_and_str_ids(tmp_path, small_split):
    """Int ids stay ints beside str ids, so the next delta still resolves them."""
    users, items = small_split.train.user_ids, small_split.train.item_ids
    grown = extend_split_interactions(
        small_split, [(users[0], items[1], 1.0), ("new0_0", "fresh-item", 2.0)]
    ).split
    assert grown.train.user_ids[-1] == "new0_0"
    loaded = load_split_npz(save_split_npz(grown, tmp_path / "split.npz"))
    for attribute in ("user_ids", "item_ids"):
        saved = getattr(grown.train, attribute)
        restored = getattr(loaded.train, attribute)
        assert restored == saved
        assert [type(raw) for raw in restored] == [type(raw) for raw in saved]

    again = extend_split_interactions(loaded, [(users[2], items[3], 1.0)])
    assert again.split.train.n_users == grown.train.n_users
    assert again.changed_users.tolist() == [2]


def test_load_rejects_mismatched_recommender_class(tmp_path, small_split):
    pipeline = Pipeline(_ganc_pipeline_spec()).fit(small_split)
    pipeline.save(tmp_path / "artifact")
    spec_path = tmp_path / "artifact" / "spec.json"
    spec = PipelineSpec.from_json_file(spec_path)
    tampered = spec.to_config()
    tampered["recommender"] = {"name": "pop", "params": {}}
    PipelineSpec.from_config(tampered).to_json_file(spec_path)
    with pytest.raises(DataFormatError, match="fitted with"):
        Pipeline.load(tmp_path / "artifact")


def test_save_requires_fitted_pipeline(tmp_path):
    pipeline = Pipeline(PipelineSpec(recommender=ComponentSpec("pop")))
    with pytest.raises(NotFittedError):
        pipeline.save(tmp_path / "nope")


def test_ganc_spec_sample_size_is_clipped(small_split):
    spec = _ganc_pipeline_spec(sample_size=10_000, optimizer="auto")
    pipeline = Pipeline(spec).fit(small_split)
    assert pipeline.model.config.sample_size == small_split.train.n_users


def test_theta_spelling_in_spec_resolves(small_split):
    pipeline = Pipeline(_ganc_pipeline_spec(theta="θN")).fit(small_split)
    assert "long_tail_fraction" in pipeline.algorithm


def test_recommend_all_block_size_override_on_ganc(small_split):
    pipeline = Pipeline(_ganc_pipeline_spec(optimizer="locally_greedy")).fit(small_split)
    baseline = pipeline.recommend_all()
    overridden = pipeline.recommend_all(block_size=3)
    assert np.array_equal(baseline.items, overridden.items)
    # The override is per-call: the fitted config is restored afterwards.
    assert pipeline.model.config.block_size is None
