"""The :class:`Pipeline` object: a spec brought to life.

``Pipeline`` composes the registry-built components behind a
``fit → recommend / recommend_all → evaluate`` lifecycle and adds
train-once/serve-many persistence (:meth:`Pipeline.save` /
:meth:`Pipeline.load`).  All scoring goes through the batched paths: GANC's
blocked assignment for framework runs, :meth:`Recommender.recommend_all`
for bare accuracy runs.

The experiment harness reuses one fitted accuracy recommender (and one
estimated preference vector) across many GANC configurations; pass such
prebuilt components to the constructor and :meth:`fit` will plug them in
instead of building fresh ones from the spec.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.split import TrainTestSplit
from repro.evaluation.evaluator import EvaluationRun, Evaluator
from repro.exceptions import ConfigurationError, DataFormatError, NotFittedError
from repro.ganc.framework import GANC, GANCConfig, PreferenceLike
from repro.pipeline.persistence import (
    FORMAT_VERSION,
    component_state,
    load_split_npz,
    read_json,
    restore_component_state,
    save_split_npz,
)
from repro.pipeline.spec import PipelineSpec
from repro.preferences.base import PreferenceModel, PreferenceResult
from repro.recommenders.base import FittedTopN, Recommender
from repro.registry import create
from repro.utils.atomic import atomic_write_json

_SPEC_FILE = "spec.json"
_SPLIT_FILE = "split.npz"
_STATE_FILE = "state.npz"
_MANIFEST_FILE = "manifest.json"
_RECOMMENDER_PREFIX = "recommender."


class Pipeline:
    """A declarative GANC (or bare-recommender) run with a fit/serve lifecycle.

    Parameters
    ----------
    spec:
        The declarative configuration.
    recommender, preference, coverage:
        Optional prebuilt components overriding registry construction.  A
        fitted recommender is reused as-is when its train data matches;
        ``preference`` may be a model, a fitted
        :class:`~repro.preferences.base.PreferenceResult`, or a raw θ array.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        *,
        recommender: Recommender | None = None,
        preference: PreferenceLike | None = None,
        coverage: Any | None = None,
    ) -> None:
        self.spec = spec
        self._injected_recommender = recommender
        self._injected_preference = preference
        self._injected_coverage = coverage
        self._recommender: Recommender | None = None
        self._model: GANC | None = None
        self._split: TrainTestSplit | None = None
        self._evaluator: Evaluator | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "Pipeline":
        """Build an (unfitted) pipeline from a plain-dict spec."""
        return cls(PipelineSpec.from_config(config))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Pipeline":
        """Build an (unfitted) pipeline from a spec JSON file."""
        return cls(PipelineSpec.from_json_file(path))

    def _component_kwargs(self, params: dict[str, Any]) -> dict[str, Any]:
        kwargs = dict(params)
        if self.spec.seed is not None:
            kwargs.setdefault("seed", self.spec.seed)
        return kwargs

    def _build_recommender(self) -> Recommender:
        if self._injected_recommender is not None:
            return self._injected_recommender
        section = self.spec.recommender
        return create(
            "recommender",
            section.name,
            scale_hint=self.spec.dataset.scale,
            **self._component_kwargs(dict(section.params)),
        )

    def _build_preference(self) -> PreferenceLike:
        if self._injected_preference is not None:
            return self._injected_preference
        section = self.spec.preference
        assert section is not None
        return create("preference", section.name, **self._component_kwargs(dict(section.params)))

    def _build_coverage(self) -> Any:
        if self._injected_coverage is not None:
            return self._injected_coverage
        section = self.spec.coverage
        assert section is not None
        return create("coverage", section.name, **self._component_kwargs(dict(section.params)))

    def _ganc_config(self, n_users: int) -> GANCConfig:
        section = self.spec.ganc
        return GANCConfig(
            sample_size=max(1, min(section.sample_size, n_users)),
            bandwidth=section.bandwidth,
            optimizer=section.optimizer,  # type: ignore[arg-type]
            theta_order=section.theta_order,  # type: ignore[arg-type]
            seed=self.spec.resolved_seed(section.seed),
            block_size=section.block_size,
            n_jobs=self.spec.execution.n_jobs,
        )

    def set_execution(self, execution: Any) -> "Pipeline":
        """Swap the spec's ``execution`` section (mechanism only, results unchanged).

        Also propagates to an already-fitted GANC model and a cached
        evaluator, so overriding ``n_jobs`` on a loaded pipeline affects
        serving immediately — no refit involved.
        """
        self.spec = replace(self.spec, execution=execution)
        if self._model is not None:
            self._model.config = replace(self._model.config, n_jobs=execution.n_jobs)
        self._evaluator = None
        return self

    def set_ganc(self, ganc: Any) -> "Pipeline":
        """Swap the spec's ``ganc`` section (optimizer knobs, not components).

        Unlike :meth:`set_execution` this *does* change what is computed —
        sample size, KDE bandwidth and θ ordering are modelling choices —
        but none of it is baked in at fit time: an already-fitted GANC model
        gets a rebuilt config (with ``sample_size`` clipped to the fitted
        user count, as at fit time) and the next :meth:`recommend_all`
        optimizes under the new knobs without any refit.
        """
        self.spec = replace(self.spec, ganc=ganc)
        if self._model is not None:
            assert self._split is not None
            self._model.config = self._ganc_config(self._split.train.n_users)
        return self

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def fit(self, data: TrainTestSplit | None = None) -> "Pipeline":
        """Build the spec'd components and fit them on the (or a) split.

        ``data=None`` loads the spec's experiment dataset; passing a
        :class:`TrainTestSplit` fits on existing data instead (the experiment
        harness does this to share one split across many pipelines).
        """
        if data is None:
            from repro.experiments.datasets import load_experiment_split

            _, split = load_experiment_split(
                self.spec.dataset.key,
                scale=self.spec.dataset.scale,
                seed=self.spec.resolved_seed(self.spec.dataset.seed),
                path=self.spec.dataset.path,
            )
        elif isinstance(data, TrainTestSplit):
            split = data
        else:
            raise ConfigurationError(
                "Pipeline.fit expects a TrainTestSplit or None (to load the "
                f"spec's dataset), got {type(data).__name__}; split raw "
                "datasets with repro.data.split first"
            )

        recommender = self._build_recommender()
        if self.spec.is_ganc:
            model = GANC(
                recommender,
                self._build_preference(),
                self._build_coverage(),
                config=self._ganc_config(split.train.n_users),
            )
            model.fit(split.train)
            self._model = model
        else:
            if not recommender.is_fitted or recommender.train_data is not split.train:
                recommender.fit(split.train)
            self._model = None
        self._recommender = recommender
        self._split = split
        self._evaluator = None
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._split is not None

    def _check_fitted(self) -> None:
        if self._split is None:
            raise NotFittedError("Pipeline must be fitted before it can be used")

    @property
    def split(self) -> TrainTestSplit:
        """The split the pipeline was fitted on."""
        self._check_fitted()
        assert self._split is not None
        return self._split

    @property
    def recommender(self) -> Recommender:
        """The (fitted) accuracy recommender."""
        self._check_fitted()
        assert self._recommender is not None
        return self._recommender

    @property
    def model(self) -> GANC | None:
        """The fitted GANC facade, or ``None`` for bare-recommender specs."""
        self._check_fitted()
        return self._model

    @property
    def algorithm(self) -> str:
        """Label used in reports: the GANC template or the recommender name."""
        self._check_fitted()
        if self._model is not None:
            return self._model.template
        return type(self.recommender).__name__

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def recommend_all(self, n: int | None = None, *, block_size: int | None = None) -> FittedTopN:
        """Top-``n`` sets for every user (``n`` defaults to the spec's).

        ``block_size`` overrides the spec's scoring block size for this call
        only (for GANC runs it is swapped into the optimizer config for the
        duration of the call).
        """
        self._check_fitted()
        n = self.spec.evaluation.n if n is None else int(n)
        if self._model is not None:
            if block_size is None or block_size == self._model.config.block_size:
                return self._model.recommend_all(n)
            original = self._model.config
            self._model.config = replace(original, block_size=block_size)
            try:
                return self._model.recommend_all(n)
            finally:
                self._model.config = original
        block = block_size if block_size is not None else self.spec.evaluation.block_size
        return self.recommender.recommend_all(
            n, block_size=block, n_jobs=self.spec.execution.n_jobs
        )

    def recommend(self, users: int | np.ndarray, n: int | None = None) -> np.ndarray:
        """Top-``n`` items for one user (1-D) or a block of users (2-D, -1 padded).

        For dynamic coverage this evaluates users against the *current*
        coverage state; :meth:`recommend_all` optimizes the full collection.
        """
        self._check_fitted()
        n = self.spec.evaluation.n if n is None else int(n)
        single = np.isscalar(users) or (isinstance(users, np.ndarray) and users.ndim == 0)
        user_block = np.atleast_1d(np.asarray(users, dtype=np.int64))
        if self._model is not None:
            out = np.full((user_block.size, n), -1, dtype=np.int64)
            for row, user in enumerate(user_block):
                items = self._model.recommend(int(user), n)
                out[row, : items.size] = items
        else:
            out = self.recommender.recommend_block(user_block, n)
        return out[0] if single else out

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    @property
    def evaluator(self) -> Evaluator:
        """Evaluator bound to the fitted split with the spec's conditions."""
        self._check_fitted()
        if self._evaluator is None:
            section = self.spec.evaluation
            self._evaluator = Evaluator(
                self.split,
                n=section.n,
                relevance_threshold=section.relevance_threshold,
                beta=section.beta,
                block_size=section.block_size,
                n_jobs=self.spec.execution.n_jobs,
            )
        return self._evaluator

    def evaluate(
        self,
        recommendations: FittedTopN | dict[int, np.ndarray] | None = None,
        *,
        algorithm: str | None = None,
        include_ndcg: bool = False,
    ) -> EvaluationRun:
        """Score recommendations (generated via :meth:`recommend_all` if omitted)."""
        if recommendations is None:
            recommendations = self.recommend_all()
        return self.evaluator.evaluate_recommendations(
            recommendations,
            algorithm=algorithm or self.algorithm,
            include_ndcg=include_ndcg,
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _preference_name(self) -> str:
        if self._model is None:
            return ""
        source = self._model._preference_input
        if isinstance(source, PreferenceModel):
            return source.name
        if isinstance(source, PreferenceResult):
            return source.model_name
        return "theta"

    def save(self, directory: str | Path) -> Path:
        """Write spec JSON + split + fitted arrays; serve later without refitting."""
        self._check_fitted()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        self.spec.to_json_file(directory / _SPEC_FILE)
        save_split_npz(self.split, directory / _SPLIT_FILE)

        arrays, recommender_meta = component_state(self.recommender)
        state = {f"{_RECOMMENDER_PREFIX}{name}": value for name, value in arrays.items()}
        manifest: dict[str, Any] = {
            "format": FORMAT_VERSION,
            "mode": "ganc" if self._model is not None else "recommender",
            "algorithm": self.algorithm,
            "recommender": {
                "class": type(self.recommender).__name__,
                "meta": recommender_meta,
            },
        }
        if self._model is not None:
            state["theta"] = self._model.theta
            manifest["preference"] = {"name": self._preference_name()}
        np.savez(directory / _STATE_FILE, **state)
        atomic_write_json(directory / _MANIFEST_FILE, manifest)
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Pipeline":
        """Rebuild a fitted pipeline saved by :meth:`save` (no model refits).

        The manifest's format is checked first, so a directory written in
        another format is refused naming it before its spec is parsed.
        """
        directory = Path(directory)
        manifest = read_json(directory / _MANIFEST_FILE)
        if manifest.get("format") != FORMAT_VERSION:
            raise DataFormatError(
                f"unsupported pipeline format {manifest.get('format')!r} in "
                f"{directory} (expected {FORMAT_VERSION})"
            )
        spec = PipelineSpec.from_json_file(directory / _SPEC_FILE)
        split = load_split_npz(directory / _SPLIT_FILE)

        with np.load(directory / _STATE_FILE, allow_pickle=False) as payload:
            state = {name: payload[name] for name in payload.files}

        pipeline = cls(spec)
        recommender = pipeline._build_recommender()
        expected_cls = manifest.get("recommender", {}).get("class")
        if expected_cls and type(recommender).__name__ != expected_cls:
            raise DataFormatError(
                f"saved pipeline was fitted with {expected_cls} but the spec "
                f"builds {type(recommender).__name__}"
            )
        arrays = {
            name[len(_RECOMMENDER_PREFIX):]: value
            for name, value in state.items()
            if name.startswith(_RECOMMENDER_PREFIX)
        }
        restore_component_state(
            recommender, arrays, manifest.get("recommender", {}).get("meta", {})
        )
        recommender._mark_fitted(split.train)

        pipeline._injected_recommender = recommender
        if spec.is_ganc:
            if "theta" not in state:
                raise DataFormatError(f"{directory} is missing the fitted theta vector")
            pipeline._injected_preference = PreferenceResult(
                theta=state["theta"],
                model_name=manifest.get("preference", {}).get("name", "theta"),
            )
        return pipeline.fit(split)
