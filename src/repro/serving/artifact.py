"""The artifact compiler: fitted pipelines → memory-mappable top-N shards.

The paper's framework is an *offline precompute* design: top-N sets are
generated in batch and then looked up per user at serve time.
:func:`compile_artifact` is that precompute step — it takes a fitted
:class:`~repro.pipeline.Pipeline` (typically a directory saved with
:meth:`Pipeline.save`), runs the batched, executor-fanned
:meth:`Pipeline.recommend_all` once, and writes the result as a compact
on-disk artifact:

``manifest.json``
    Format version, top-N size, user coverage, shard layout, the SHA-256 of
    the compiled spec (so a store can verify a fallback pipeline matches),
    and the numpy/scipy line the floats were produced under (same
    ``major.minor`` convention as ``tests/golden/environment.json``).
``shards/items_XXXXX.npy``
    ``(users_in_shard, n)`` int64 blocks of item indices in rank order,
    ``-1``-padded — the exact rows ``recommend_all`` produced.
``shards/scores_XXXXX.npy``
    ``(users_in_shard, n)`` float64 blocks holding the accuracy
    recommender's raw scores of the stored items (``NaN`` on padding).
    Diagnostic only: the *ranking* comes from the full pipeline (which for
    GANC runs trades accuracy off against coverage and novelty), so these
    scores are not necessarily monotone along a row.  They are read from the
    score blocks the ranking pass itself computed
    (:attr:`~repro.recommenders.base.FittedTopN.scores`), so every user is
    scored once per compile.

Shards are written with plain :func:`numpy.save`, so a store can map them
with ``np.load(..., mmap_mode="r")`` and serve lookups without loading the
table into memory.

Byte-identity contract
----------------------
The stored item rows are exactly ``pipeline.recommend_all(n).items`` — the
compiler adds no post-processing — so artifact lookups reproduce live
scoring byte for byte.  ``manifest["prefix_consistent"]`` records whether
top-``k`` for ``k < n`` may be served by slicing a stored row: true for bare
recommender pipelines (the canonical ordering of :mod:`repro.utils.topn` is
prefix-stable), false for GANC pipelines (the greedy assignment is specific
to the compiled ``n``, so smaller ``k`` must fall back to live scoring).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, DataFormatError
from repro.parallel.executor import Executor, resolve_executor
from repro.pipeline.persistence import read_json
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.spec import ExecutionSpec
from repro.utils.atomic import atomic_save as _atomic_save
from repro.utils.atomic import atomic_write_json as _atomic_write_json

#: Current artifact format version.
ARTIFACT_FORMAT_VERSION = 1

#: Users stored per shard file by default.
DEFAULT_SHARD_SIZE = 4096

MANIFEST_FILE = "manifest.json"
_SHARD_DIR = "shards"


def spec_hash(pipeline: Pipeline) -> str:
    """SHA-256 hex digest of a pipeline's canonical spec JSON.

    Stored in the artifact manifest and re-checked when a store attaches a
    live fallback pipeline, so an artifact is never silently mixed with a
    pipeline compiled from a different configuration.  The ``execution``
    section is excluded: it is mechanism, not modelling (results are
    byte-identical for every worker count), so two pipelines
    differing only in how they fan out are interchangeable for serving.
    """
    config = pipeline.spec.to_config()
    config.pop("execution", None)
    document = json.dumps(config, indent=2, sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def serving_environment() -> dict[str, str]:
    """The ``major.minor`` numpy/scipy line the artifact floats came from.

    Byte-exact float output is only guaranteed against the same library
    line (SVD results can differ in the last ulp across BLAS builds); the
    convention mirrors ``tests/golden/environment.json``.
    """
    import numpy
    import scipy

    def major_minor(version: str) -> str:
        """Truncate a version string to its first two components."""
        return ".".join(version.split(".")[:2])

    return {"numpy": major_minor(numpy.__version__), "scipy": major_minor(scipy.__version__)}


def _resolve_pipeline(pipeline: Pipeline | str | Path) -> Pipeline:
    """Accept a fitted pipeline or a saved-pipeline directory."""
    if isinstance(pipeline, Pipeline):
        return pipeline
    return Pipeline.load(pipeline)


def _shard_name(kind: str, index: int) -> str:
    return f"{_SHARD_DIR}/{kind}_{index:05d}.npy"


def _sweep_stale(output_dir: Path, referenced: set[str], started: float) -> None:
    """Delete shard files the fresh manifest no longer references.

    Recompiling in place with a different shard layout (or ``--max-users``)
    can leave ``.npy`` files behind; live stores that mapped them keep
    reading their (unlinked) inodes until they reload.  Leftover ``.tmp``
    files are swept only when they predate this compile's start — a tmp
    younger than that may belong to another in-flight compile, whose rename
    must not be sabotaged.  ``missing_ok`` tolerates two concurrent sweeps
    racing over the same stale file.
    """
    for stale in (output_dir / _SHARD_DIR).iterdir():
        if stale.suffix == ".npy" and stale.name not in referenced:
            stale.unlink(missing_ok=True)
        elif stale.name.endswith(".tmp"):
            try:
                if stale.stat().st_mtime < started:
                    stale.unlink(missing_ok=True)
            except FileNotFoundError:
                pass


def _previous_revision(output_dir: Path) -> int:
    """The revision of an artifact already in ``output_dir`` (0 when none).

    ``revision`` is a per-directory monotone counter: every compile or
    update that swaps the manifest bumps it, so a live store (or anything
    watching ``/healthz``) can tell warm reloads apart.  A missing or
    unreadable manifest counts as no previous artifact.
    """
    try:
        manifest = read_json(output_dir / MANIFEST_FILE)
    except DataFormatError:
        return 0
    revision = manifest.get("revision", 1)
    return int(revision) if isinstance(revision, (int, float)) else 0


def _compute_rows(
    pipeline: Pipeline, n: int, coverage: int, *, block_size: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The compile pass: top-N item rows plus diagnostic score rows.

    Shared by :func:`compile_artifact` and the delta updater
    (:func:`repro.serving.update.compile_artifact_update`) so both produce
    the same bytes for the same pipeline.
    """
    # The tentpole contract: stored rows ARE recommend_all's rows.  The
    # call fans out over the spec'd executor exactly as a live run would,
    # and returns the raw scores of the chosen items from the same blocks.
    top = pipeline.recommend_all(n, block_size=block_size)
    return top.items[:coverage], top.scores[:coverage]


def compile_artifact(
    pipeline: Pipeline | str | Path,
    output_dir: str | Path,
    *,
    n: int | None = None,
    shard_size: int | None = None,
    max_users: int | None = None,
    block_size: int | None = None,
    executor: Executor | None = None,
    n_jobs: int | None = None,
) -> Path:
    """Precompute top-``n`` for all users and write a serveable artifact.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.pipeline.Pipeline` or the directory of one
        saved with :meth:`Pipeline.save`.
    output_dir:
        Destination directory (created if missing).
    n:
        Top-N size to compile; defaults to the spec's ``evaluation.n``.
    shard_size:
        Users stored per ``.npy`` shard file (default
        :data:`DEFAULT_SHARD_SIZE`).
    max_users:
        Store only the first ``max_users`` users (the full assignment still
        runs, so stored rows are identical to a full compile); remaining
        users are served by the store's live fallback.
    block_size:
        Scoring block size override, as in :meth:`Pipeline.recommend_all`.
    executor, n_jobs:
        Fan-out of the compile pass, resolved exactly like every other
        batched path (:func:`repro.parallel.resolve_executor`).  When either
        is given it overrides the pipeline spec's ``execution`` section for
        the duration of the compile.

    Returns
    -------
    Path
        The artifact directory.
    """
    started = time.time()
    pipeline = _resolve_pipeline(pipeline)
    if not pipeline.is_fitted:
        raise ConfigurationError("compile_artifact needs a fitted pipeline (call fit() or load a saved one)")
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else int(shard_size)
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")

    n = pipeline.spec.evaluation.n if n is None else int(n)
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")

    original_execution = None
    if executor is not None or n_jobs is not None:
        chosen = resolve_executor(executor, n_jobs)
        original_execution = pipeline.spec.execution
        pipeline.set_execution(ExecutionSpec(n_jobs=chosen.n_jobs))

    n_users_total = pipeline.split.train.n_users
    coverage = n_users_total if max_users is None else min(int(max_users), n_users_total)
    if coverage < 1:
        raise ConfigurationError(f"max_users must be >= 1, got {max_users}")

    try:
        items, scores = _compute_rows(pipeline, n, coverage, block_size=block_size)
    finally:
        # The override applies for the duration of the compile only; a
        # caller-owned pipeline must not come back with its execution spec
        # (or a fitted GANC model's config) silently rewritten.
        if original_execution is not None:
            pipeline.set_execution(original_execution)

    output_dir = Path(output_dir)
    (output_dir / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
    revision = _previous_revision(output_dir) + 1

    shards: list[dict[str, Any]] = []
    for index, start in enumerate(range(0, coverage, shard_size)):
        stop = min(start + shard_size, coverage)
        items_name = _shard_name("items", index)
        scores_name = _shard_name("scores", index)
        _atomic_save(output_dir / items_name, items[start:stop])
        _atomic_save(output_dir / scores_name, scores[start:stop])
        shards.append({"items": items_name, "scores": scores_name, "start": start, "stop": stop})

    manifest: dict[str, Any] = {
        "format": ARTIFACT_FORMAT_VERSION,
        "n": n,
        "n_items": pipeline.split.train.n_items,
        "n_users": coverage,
        "n_users_total": n_users_total,
        "revision": revision,
        "shard_size": int(shard_size),
        "shards": shards,
        "spec_sha256": spec_hash(pipeline),
        "algorithm": pipeline.algorithm,
        "mode": "ganc" if pipeline.model is not None else "recommender",
        "prefix_consistent": pipeline.model is None,
        "environment": serving_environment(),
        # Scoring precision (an additive key; absent in pre-scale manifests),
        # so a served artifact's tolerance contract is auditable.
        "score_dtype": str(getattr(pipeline.recommender, "dtype", "float64")),
    }
    _atomic_write_json(output_dir / MANIFEST_FILE, manifest)

    referenced = {entry["items"].split("/")[-1] for entry in shards}
    referenced |= {entry["scores"].split("/")[-1] for entry in shards}
    _sweep_stale(output_dir, referenced, started)
    return output_dir


def load_manifest(artifact_dir: str | Path) -> dict[str, Any]:
    """Read and validate an artifact's ``manifest.json``.

    Every key the :class:`~repro.serving.store.RecommendationStore`
    dereferences — top-level layout fields and the per-shard entries — is
    checked here, so a hand-edited or truncated manifest fails at load time
    with a :class:`~repro.exceptions.DataFormatError` naming the file,
    never with a bare ``KeyError`` in the middle of a lookup.
    """
    artifact_dir = Path(artifact_dir)
    manifest_path = artifact_dir / MANIFEST_FILE
    manifest = read_json(manifest_path)
    if manifest.get("format") != ARTIFACT_FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported artifact format {manifest.get('format')!r} in "
            f"{artifact_dir} (expected {ARTIFACT_FORMAT_VERSION})"
        )
    for key in ("n", "n_items", "n_users", "shard_size", "shards"):
        if key not in manifest:
            raise DataFormatError(f"artifact manifest {manifest_path} is missing {key!r}")
    shards = manifest["shards"]
    if not isinstance(shards, list):
        raise DataFormatError(
            f"artifact manifest {manifest_path} has a non-list 'shards' entry "
            f"({type(shards).__name__})"
        )
    for position, entry in enumerate(shards):
        if not isinstance(entry, dict):
            raise DataFormatError(
                f"shard {position} in artifact manifest {manifest_path} is not "
                f"an object ({type(entry).__name__})"
            )
        for key in ("items", "scores", "start", "stop"):
            if key not in entry:
                raise DataFormatError(
                    f"shard {position} in artifact manifest {manifest_path} "
                    f"is missing {key!r}"
                )
    return manifest
