"""Tests for declarative pipeline specs (repro.pipeline.spec)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
    ganc_spec,
)


def _full_spec() -> PipelineSpec:
    return PipelineSpec(
        dataset=DatasetSpec(key="ml100k", scale=0.2, seed=None),
        recommender=ComponentSpec("psvd100", params={"n_factors": 20}),
        preference=ComponentSpec("thetaG"),
        coverage=ComponentSpec("rand", params={"seed": 5}),
        ganc=GANCSpec(sample_size=40, optimizer="oslg", theta_order="increasing"),
        evaluation=EvaluationSpec(n=5, block_size=16),
        seed=0,
    )


# --------------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------------- #
def test_config_round_trip_is_identity():
    spec = _full_spec()
    assert PipelineSpec.from_config(spec.to_config()) == spec


def test_json_round_trip_is_identity():
    spec = _full_spec()
    assert PipelineSpec.from_json(spec.to_json()) == spec


def test_json_file_round_trip(tmp_path):
    spec = _full_spec()
    path = spec.to_json_file(tmp_path / "spec.json")
    assert PipelineSpec.from_json_file(path) == spec


def test_bare_recommender_spec_round_trips():
    spec = PipelineSpec(recommender=ComponentSpec("pop"), dataset=DatasetSpec(key="ml1m"))
    restored = PipelineSpec.from_config(spec.to_config())
    assert restored == spec
    assert not restored.is_ganc


def test_defaults_fill_missing_sections():
    spec = PipelineSpec.from_config({"recommender": {"name": "pop"}})
    assert spec.dataset == DatasetSpec()
    assert spec.ganc == GANCSpec()
    assert spec.evaluation == EvaluationSpec()
    assert spec.seed == 0


def test_component_spec_accepts_bare_string():
    spec = PipelineSpec.from_config(
        {"recommender": "pop", "preference": "thetaG", "coverage": "dyn"}
    )
    assert spec.recommender == ComponentSpec("pop")
    assert spec.is_ganc


def test_round_trip_reproduces_identical_recommendations(small_split):
    spec = ganc_spec(
        dataset="ml100k", arec="psvd10", theta="thetaN", coverage="dyn",
        n=5, sample_size=20, optimizer="oslg", scale=0.2, seed=0,
    )
    original = Pipeline(spec).fit(small_split).recommend_all()
    restored_spec = PipelineSpec.from_json(spec.to_json())
    restored = Pipeline(restored_spec).fit(small_split).recommend_all()
    assert np.array_equal(original.items, restored.items)


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        PipelineSpec.from_config({"recommender": {"name": "pop"}, "recomender": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        PipelineSpec.from_config(
            {"recommender": {"name": "pop"}, "ganc": {"sample_sizes": 3}}
        )


def test_missing_recommender_rejected():
    with pytest.raises(ConfigurationError, match="recommender"):
        PipelineSpec.from_config({"dataset": {"key": "ml100k"}})


def test_preference_requires_coverage_and_vice_versa():
    with pytest.raises(ConfigurationError, match="together"):
        PipelineSpec(recommender=ComponentSpec("pop"), preference=ComponentSpec("thetaG"))
    with pytest.raises(ConfigurationError, match="together"):
        PipelineSpec(recommender=ComponentSpec("pop"), coverage=ComponentSpec("dyn"))


def test_invalid_section_values_rejected():
    with pytest.raises(ConfigurationError):
        GANCSpec(sample_size=0)
    with pytest.raises(ConfigurationError):
        GANCSpec(optimizer="newton")
    with pytest.raises(ConfigurationError):
        GANCSpec(theta_order="sideways")
    with pytest.raises(ConfigurationError):
        EvaluationSpec(n=0)
    with pytest.raises(ConfigurationError):
        DatasetSpec(scale=0.0)
    with pytest.raises(ConfigurationError):
        ComponentSpec("")


def test_invalid_json_rejected():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        PipelineSpec.from_json("{not json")


@pytest.mark.parametrize("document,reason", [
    ("{not json", "not valid JSON"),
    ('{"recommender": "pop", "execution": {"backend": "thread"}}', "['backend']"),
])
def test_rejected_spec_file_names_its_path(tmp_path, document, reason):
    path = tmp_path / "spec.json"
    path.write_text(document, encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        PipelineSpec.from_json_file(path)
    assert str(path) in str(excinfo.value)
    assert reason in str(excinfo.value)


def test_section_seeds_inherit_spec_seed():
    spec = _full_spec()
    assert spec.resolved_seed(spec.ganc.seed) == 0
    assert spec.resolved_seed(7) == 7


# --------------------------------------------------------------------------- #
# GANC bandwidth field
# --------------------------------------------------------------------------- #
def test_ganc_spec_bandwidth_round_trips():
    for bandwidth in ("scott", 0.25):
        spec = GANCSpec(bandwidth=bandwidth)
        rebuilt = GANCSpec.from_config(spec.to_config())
        assert rebuilt.bandwidth == bandwidth


def test_ganc_spec_rejects_bad_bandwidth():
    with pytest.raises(ConfigurationError, match="bandwidth"):
        GANCSpec(bandwidth="silvermann")
    with pytest.raises(ConfigurationError, match="bandwidth"):
        GANCSpec(bandwidth=-1.0)


def test_ganc_spec_without_bandwidth_key_defaults():
    """Spec files written before the field existed still load."""
    spec = GANCSpec.from_config({"sample_size": 10})
    assert spec.bandwidth == "silverman"


def test_full_spec_json_round_trip_keeps_bandwidth():
    spec = _full_spec()
    spec = PipelineSpec.from_json(spec.to_json())
    assert spec.ganc.bandwidth == "silverman"
