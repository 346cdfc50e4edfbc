"""Declarative pipeline specifications.

A :class:`PipelineSpec` is the complete, serializable description of one GANC
(or bare-recommender) run: which dataset/split to use, which components to
plug together (by their :mod:`repro.registry` names), and how to optimize and
evaluate.  Specs round-trip losslessly through plain dicts
(:meth:`PipelineSpec.to_config` / :meth:`PipelineSpec.from_config`) and JSON
files, which is what makes experiment configurations reviewable artifacts
instead of hand-wired Python.

Sections
--------
``dataset``
    Experiment dataset key (Table II surrogate), scale factor and split seed.
``recommender`` / ``preference`` / ``coverage``
    Component name + hyper-parameter overrides.  ``preference`` and
    ``coverage`` are optional *together*: with both present the pipeline runs
    the full GANC framework, with both absent it serves the bare accuracy
    recommender.
``ganc``
    Optimization hyper-parameters mirroring :class:`repro.ganc.GANCConfig`.
``evaluation``
    Top-N size, relevance threshold, stratified-recall β and the scoring
    block size.
``execution``
    How the batched paths run: the worker count ``n_jobs``.  Execution is
    *mechanism*, not modelling — results are byte-identical for every
    setting, so two specs differing only in ``execution`` describe the same
    experiment.

Every section's ``seed`` may be left ``None`` to inherit the spec-level
``seed``, so a single integer reproduces a whole run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.ganc.kde import validate_bandwidth
from repro.parallel.executor import effective_n_jobs

_MISSING = object()


def _require_mapping(value: Any, section: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"pipeline config section {section!r} must be a mapping, "
            f"got {type(value).__name__}"
        )
    return dict(value)


def _check_keys(config: Mapping[str, Any], allowed: tuple[str, ...], section: str) -> None:
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in pipeline config section {section!r}; "
            f"valid keys: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ComponentSpec:
    """One pluggable component: its registry name plus hyper-parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigurationError(f"component name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "params", dict(self.params))

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable as long as the params are)."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_config(cls, config: Mapping[str, Any] | str, *, section: str = "component") -> "ComponentSpec":
        """Rebuild from :meth:`to_config` output (a bare string means no params)."""
        if isinstance(config, str):
            return cls(name=config)
        config = _require_mapping(config, section)
        _check_keys(config, ("name", "params"), section)
        if "name" not in config:
            raise ConfigurationError(f"pipeline config section {section!r} is missing 'name'")
        return cls(name=config["name"], params=_require_mapping(config.get("params", {}), f"{section}.params"))


@dataclass(frozen=True)
class DatasetSpec:
    """Which experiment dataset to load and how to split it.

    ``path`` switches the data source from the synthetic Table II surrogate
    to an out-of-core ingest store (:mod:`repro.data.outofcore`): the store
    at that directory is opened memmap-backed and split with the ``key``'s
    ratio/seed protocol.  ``scale`` is ignored for stores (the data is
    whatever was ingested).
    """

    key: str = "ml100k"
    scale: float = 1.0
    seed: int | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key.strip():
            raise ConfigurationError(f"dataset key must be a non-empty string, got {self.key!r}")
        if self.scale <= 0:
            raise ConfigurationError(f"dataset scale must be positive, got {self.scale}")
        if self.path is not None and (not isinstance(self.path, str) or not self.path.strip()):
            raise ConfigurationError(
                f"dataset path must be a non-empty string or None, got {self.path!r}"
            )

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form.

        ``path`` is emitted only when set: compiled serving artifacts pin
        the sha256 of this config (``spec_sha256``), so synthetic-dataset
        specs must serialize exactly as they did before ``path`` existed.
        """
        config: dict[str, Any] = {"key": self.key, "scale": self.scale, "seed": self.seed}
        if self.path is not None:
            config["path"] = self.path
        return config

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "DatasetSpec":
        """Rebuild from :meth:`to_config` output."""
        config = _require_mapping(config, "dataset")
        _check_keys(config, ("key", "scale", "seed", "path"), "dataset")
        return cls(
            key=config.get("key", "ml100k"),
            scale=float(config.get("scale", 1.0)),
            seed=config.get("seed"),
            path=config.get("path"),
        )


@dataclass(frozen=True)
class GANCSpec:
    """Optimization hyper-parameters, mirroring :class:`repro.ganc.GANCConfig`.

    ``sample_size`` is clipped to the train user count at fit time (as every
    experiment in the paper does), so one spec works across dataset scales.
    """

    sample_size: int = 500
    bandwidth: float | str = "silverman"
    optimizer: str = "auto"
    theta_order: str = "increasing"
    block_size: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1, got {self.sample_size}")
        validate_bandwidth(self.bandwidth, parameter="bandwidth")
        if self.optimizer not in ("auto", "oslg", "locally_greedy"):
            raise ConfigurationError(
                f"optimizer must be 'auto', 'oslg' or 'locally_greedy', got {self.optimizer!r}"
            )
        if self.theta_order not in ("increasing", "decreasing", "arbitrary"):
            raise ConfigurationError(
                f"theta_order must be 'increasing', 'decreasing' or 'arbitrary', "
                f"got {self.theta_order!r}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form."""
        return {
            "sample_size": self.sample_size,
            "bandwidth": self.bandwidth,
            "optimizer": self.optimizer,
            "theta_order": self.theta_order,
            "block_size": self.block_size,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "GANCSpec":
        """Rebuild from :meth:`to_config` output (``bandwidth`` is optional
        so spec files written before it existed still load)."""
        config = _require_mapping(config, "ganc")
        _check_keys(
            config,
            ("sample_size", "bandwidth", "optimizer", "theta_order", "block_size", "seed"),
            "ganc",
        )
        return cls(
            sample_size=int(config.get("sample_size", 500)),
            bandwidth=config.get("bandwidth", "silverman"),
            optimizer=config.get("optimizer", "auto"),
            theta_order=config.get("theta_order", "increasing"),
            block_size=config.get("block_size"),
            seed=config.get("seed"),
        )


@dataclass(frozen=True)
class EvaluationSpec:
    """How generated top-N sets are scored (Table III conditions)."""

    n: int = 5
    relevance_threshold: float = 4.0
    beta: float = 0.5
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form."""
        return {
            "n": self.n,
            "relevance_threshold": self.relevance_threshold,
            "beta": self.beta,
            "block_size": self.block_size,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "EvaluationSpec":
        """Rebuild from :meth:`to_config` output."""
        config = _require_mapping(config, "evaluation")
        _check_keys(config, ("n", "relevance_threshold", "beta", "block_size"), "evaluation")
        return cls(
            n=int(config.get("n", 5)),
            relevance_threshold=float(config.get("relevance_threshold", 4.0)),
            beta=float(config.get("beta", 0.5)),
            block_size=config.get("block_size"),
        )


@dataclass(frozen=True)
class ExecutionSpec:
    """How the batched score paths execute (see :mod:`repro.parallel`).

    ``n_jobs=1`` runs blocks in order in the caller, larger values on a
    thread pool, and ``-1`` uses one worker per available CPU.  Changing
    this section never changes results.
    """

    n_jobs: int = 1

    def __post_init__(self) -> None:
        try:
            effective_n_jobs(self.n_jobs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"execution {exc}") from None

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form."""
        return {"n_jobs": self.n_jobs}

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "ExecutionSpec":
        """Rebuild from :meth:`to_config` output."""
        config = _require_mapping(config, "execution")
        _check_keys(config, ("n_jobs",), "execution")
        n_jobs = config.get("n_jobs", 1)
        if not isinstance(n_jobs, int) or isinstance(n_jobs, bool):
            raise ConfigurationError(
                f"execution n_jobs must be an integer, got {n_jobs!r}"
            )
        return cls(n_jobs=n_jobs)


@dataclass(frozen=True)
class PipelineSpec:
    """Complete declarative description of one pipeline run."""

    recommender: ComponentSpec
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    preference: ComponentSpec | None = None
    coverage: ComponentSpec | None = None
    ganc: GANCSpec = field(default_factory=GANCSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    seed: int | None = 0

    def __post_init__(self) -> None:
        if (self.preference is None) != (self.coverage is None):
            raise ConfigurationError(
                "preference and coverage must be specified together: GANC needs "
                "all three components, a bare accuracy run needs neither"
            )

    @property
    def is_ganc(self) -> bool:
        """Whether this spec describes a full GANC run (vs a bare recommender)."""
        return self.preference is not None

    def resolved_seed(self, section_seed: int | None) -> int | None:
        """A section's effective seed: its own, else the spec-level one."""
        return self.seed if section_seed is None else section_seed

    # ------------------------------------------------------------------ #
    def to_config(self) -> dict[str, Any]:
        """Nested plain-dict form; ``from_config`` inverts it exactly."""
        return {
            "seed": self.seed,
            "dataset": self.dataset.to_config(),
            "recommender": self.recommender.to_config(),
            "preference": None if self.preference is None else self.preference.to_config(),
            "coverage": None if self.coverage is None else self.coverage.to_config(),
            "ganc": self.ganc.to_config(),
            "evaluation": self.evaluation.to_config(),
            "execution": self.execution.to_config(),
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "PipelineSpec":
        """Rebuild a spec from :meth:`to_config` output (strict on unknown keys)."""
        config = _require_mapping(config, "pipeline")
        _check_keys(
            config,
            (
                "seed", "dataset", "recommender", "preference", "coverage",
                "ganc", "evaluation", "execution",
            ),
            "pipeline",
        )
        recommender = config.get("recommender", _MISSING)
        if recommender is _MISSING:
            raise ConfigurationError("pipeline config is missing the 'recommender' section")
        preference = config.get("preference")
        coverage = config.get("coverage")
        return cls(
            seed=config.get("seed", 0),
            dataset=DatasetSpec.from_config(config.get("dataset", {})),
            recommender=ComponentSpec.from_config(recommender, section="recommender"),
            preference=(
                None if preference is None
                else ComponentSpec.from_config(preference, section="preference")
            ),
            coverage=(
                None if coverage is None
                else ComponentSpec.from_config(coverage, section="coverage")
            ),
            ganc=GANCSpec.from_config(config.get("ganc", {})),
            evaluation=EvaluationSpec.from_config(config.get("evaluation", {})),
            execution=ExecutionSpec.from_config(config.get("execution", {})),
        )

    # ------------------------------------------------------------------ #
    def to_json(self, *, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_config(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, document: str) -> "PipelineSpec":
        """Parse a spec from a JSON document string."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"pipeline spec is not valid JSON: {exc}") from exc
        return cls.from_config(payload)

    def to_json_file(self, path: str | Path) -> Path:
        """Write the spec as a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineSpec":
        """Load a spec previously written by :meth:`to_json_file`.

        Every :class:`~repro.exceptions.ConfigurationError` names the file.
        """
        path = Path(path)
        try:
            document = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read pipeline spec {path}: {exc}") from exc
        try:
            return cls.from_json(document)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc


def ganc_spec(
    *,
    dataset: str,
    arec: str,
    theta: str,
    coverage: str = "dyn",
    n: int = 5,
    sample_size: int = 500,
    bandwidth: float | str = "silverman",
    optimizer: str = "auto",
    theta_order: str = "increasing",
    scale: float = 1.0,
    seed: int | None = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
    arec_params: Mapping[str, Any] | None = None,
) -> PipelineSpec:
    """Shorthand for the ``GANC(ARec, θ, CRec)`` specs the experiments build."""
    return PipelineSpec(
        dataset=DatasetSpec(key=dataset, scale=scale),
        recommender=ComponentSpec(arec, params=dict(arec_params or {})),
        preference=ComponentSpec(theta),
        coverage=ComponentSpec(coverage),
        ganc=GANCSpec(
            sample_size=sample_size,
            bandwidth=bandwidth,
            optimizer=optimizer,
            theta_order=theta_order,
            block_size=block_size,
        ),
        evaluation=EvaluationSpec(n=n, block_size=block_size),
        execution=ExecutionSpec(n_jobs=n_jobs),
        seed=seed,
    )
