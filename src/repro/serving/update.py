"""Delta-only artifact recompilation: the ``repro compile --update`` engine.

The offline half of the paper's design recomputes everything from scratch on
every compile; once streaming ingestion (:mod:`repro.data.incremental`) can
append ratings to a fitted split, most of that work is redundant — a small
delta touches few users, and the shards of everyone else would come out byte
for byte identical.  This module closes the loop in three layers:

:func:`refit_pipeline`
    Absorb an extended split into a fitted pipeline, using the recommender's
    exact :meth:`~repro.recommenders.base.Recommender.delta_refit` when it
    has one and falling back to a full :meth:`fit` otherwise, and report
    whether the fitted state actually moved.
:func:`compile_artifact_update`
    Recompute top-N rows — for every covered user by default, or only for
    the users whose inputs changed when that is provably safe — then
    byte-compare each fresh shard against the live artifact and rewrite
    *only* the shards whose rows differ (identical shards are skipped,
    shards past the old coverage are appended).  The manifest, carrying a
    bumped ``revision``, is swapped last, so the documented
    recompile-then-SIGHUP workflow keeps working unchanged: a live store
    serves the old revision until it reloads, and a crash mid-update leaves
    it serving the old revision byte-identically.
:func:`ingest_and_update`
    The CLI composition: load a saved pipeline, ingest a delta CSV, refit,
    save the pipeline back in place, delta-compile the artifact.

Correctness contract (asserted in ``tests/test_serving_update.py``): after
an update, the artifact directory is byte-identical — every shard file and
every manifest field except ``revision`` — to a from-scratch
:func:`~repro.serving.artifact.compile_artifact` of the extended dataset.

When is the narrowed recompute safe?
------------------------------------
Skipping a user's recompute assumes their row could not have moved.  That
holds only when (a) the pipeline is a bare recommender — GANC's greedy
assignment couples every user through the shared coverage state, so any
change anywhere can reshuffle any row — and (b) the recommender's fitted
state is bitwise unchanged by the refit (``state_changed=False``), so
unchanged users score identically; the users whose *exclusion sets* changed
are exactly the ``changed_users`` the ingestion layer reports, and they are
recomputed.  In practice that narrows to cold-start arrivals (universe
growth without new ratings touching the model).  Everything else recomputes
all rows — the per-shard byte diff is the universal work-saving net either
way, and the one the ``rewrites only changed shards`` guarantee rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.incremental import extend_split_interactions, read_delta_csv
from repro.data.split import TrainTestSplit
from repro.exceptions import ConfigurationError
from repro.parallel.executor import Executor
from repro.parallel.tasks import TopNScoresTask
from repro.pipeline.pipeline import Pipeline
from repro.serving.artifact import (
    ARTIFACT_FORMAT_VERSION,
    MANIFEST_FILE,
    _compute_rows,
    _jobs_override,
    _resolve_pipeline,
    _shard_name,
    _sweep_stale,
    load_manifest,
    serving_environment,
    spec_hash,
)
from repro.utils.atomic import atomic_save as _atomic_save
from repro.utils.atomic import atomic_write_json as _atomic_write_json
from repro.utils.topn import iter_user_blocks


@dataclass(frozen=True)
class RefitReport:
    """How :func:`refit_pipeline` absorbed an extension.

    Attributes
    ----------
    kind:
        ``"delta"`` when the recommender's exact delta path ran, ``"full"``
        when it fell back to a from-scratch fit.
    state_changed:
        Whether the recommender's persisted state differs bitwise from
        before the refit.  ``False`` is what licenses the narrowed recompute
        of :func:`compile_artifact_update`.
    """

    kind: str
    state_changed: bool


@dataclass(frozen=True)
class UpdateReport:
    """What :func:`compile_artifact_update` did to the artifact directory.

    ``shards_skipped + shards_rewritten + shards_appended`` equals the shard
    count of the updated artifact; ``users_recomputed`` is how many top-N
    rows were actually recomputed (the rest were carried over from the live
    artifact and proven unchanged by the byte diff).
    """

    artifact_dir: Path
    revision: int
    n_users: int
    users_recomputed: int
    shards_skipped: int
    shards_rewritten: int
    shards_appended: int


def refit_pipeline(
    pipeline: Pipeline, split: TrainTestSplit
) -> tuple[Pipeline, RefitReport]:
    """Absorb an extended split into a fitted pipeline.

    ``split`` must be the extension produced by
    :func:`repro.data.incremental.extend_split` (or its raw-id/CSV
    front-ends) over ``pipeline.split``.  The recommender is refitted via
    its exact :meth:`~repro.recommenders.base.Recommender.delta_refit` when
    supported, with a full :meth:`fit` fallback otherwise — the refitted
    model is bit-identical to a from-scratch fit either way.  Everything
    else is rebuilt from the spec on the new split: for GANC pipelines the
    preference θ is re-estimated and the coverage state re-initialized,
    exactly as a fresh ``Pipeline(spec).fit(split)`` would (a loaded
    pipeline's injected θ belongs to the *old* train and must not leak
    forward).

    The refit mutates ``pipeline``'s recommender in place (it is shared with
    the returned pipeline); the old pipeline object should be discarded.
    """
    pipeline._check_fitted()
    recommender = pipeline.recommender
    try:
        recommender.delta_refit(split.train)
        kind = "delta"
        # Implementations record whether any persisted state actually moved
        # (pure cold-start arrivals leave it bitwise intact); True is the
        # conservative default for models that never set it.
        state_changed = bool(getattr(recommender, "delta_changed_state", True))
    except ConfigurationError:
        recommender.fit(split.train)
        kind = "full"
        state_changed = True
    refitted = Pipeline(pipeline.spec, recommender=recommender).fit(split)
    return refitted, RefitReport(kind=kind, state_changed=state_changed)


def _narrowed_rows(
    pipeline: Pipeline,
    artifact_dir: Path,
    manifest: dict[str, Any],
    n: int,
    coverage: int,
    changed_users: np.ndarray,
    *,
    block_size: int | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Carry over live rows, recompute only changed + newly-arrived users."""
    old_coverage = int(manifest["n_users"])
    items = np.full((coverage, n), -1, dtype=np.int64)
    scores = np.full((coverage, n), np.nan, dtype=np.float64)
    for entry in manifest["shards"]:
        start, stop = int(entry["start"]), int(entry["stop"])
        items[start:stop] = np.load(artifact_dir / entry["items"], mmap_mode="r")
        scores[start:stop] = np.load(artifact_dir / entry["scores"], mmap_mode="r")

    changed = np.atleast_1d(np.asarray(changed_users, dtype=np.int64))
    arrived = np.arange(old_coverage, coverage, dtype=np.int64)
    todo = np.union1d(changed, arrived)
    todo = todo[(todo >= 0) & (todo < coverage)]
    if todo.size:
        fan_out = Executor(pipeline.spec.execution.n_jobs)
        blocks = [todo[block] for block in iter_user_blocks(todo.size, block_size)]
        task = TopNScoresTask(pipeline.recommender, n)
        for block, (rows, row_scores) in zip(blocks, fan_out.map_blocks(task, blocks)):
            items[block] = rows
            scores[block] = row_scores
    return items, scores, int(todo.size)


def compile_artifact_update(
    pipeline: Pipeline | str | Path,
    artifact_dir: str | Path,
    *,
    changed_users: np.ndarray | None = None,
    state_changed: bool = True,
    block_size: int | None = None,
    n_jobs: int | None = None,
) -> UpdateReport:
    """Bring a live artifact up to date with a refitted pipeline, delta-only.

    The artifact's own layout (``n``, ``shard_size``, coverage policy) is
    authoritative — an update never changes how an artifact is sharded, only
    which shard files need new bytes.  Partial artifacts (compiled with
    ``--max-users``) stay partial; full artifacts grow to cover newly
    arrived users with appended shards.

    Parameters
    ----------
    pipeline:
        The refitted pipeline (see :func:`refit_pipeline`) or the directory
        of one saved with :meth:`Pipeline.save`.  Its spec must hash to the
        artifact's ``spec_sha256`` and its train data must extend the
        compiled dataset.
    changed_users:
        Dense indices of users whose train inputs changed (the ingestion
        layer's :attr:`~repro.data.incremental.SplitExtension.changed_users`).
        ``None`` means unknown — every covered row is recomputed.
    state_changed:
        Whether the refit changed the recommender's fitted state
        (:attr:`RefitReport.state_changed`).  Only ``False`` — together with
        ``changed_users`` and a bare-recommender pipeline — enables the
        narrowed recompute; the default assumes the worst.
    block_size, n_jobs:
        Fan-out of the recompute pass, exactly as in
        :func:`~repro.serving.artifact.compile_artifact`.
    """
    started = time.time()
    pipeline = _resolve_pipeline(pipeline)
    if not pipeline.is_fitted:
        raise ConfigurationError(
            "compile_artifact_update needs a fitted pipeline (call fit() or load a saved one)"
        )
    artifact_dir = Path(artifact_dir)
    manifest = load_manifest(artifact_dir)

    expected = manifest.get("spec_sha256")
    if expected and spec_hash(pipeline) != expected:
        raise ConfigurationError(
            f"pipeline spec does not match the artifact in {artifact_dir}: the "
            f"artifact was compiled from spec {expected[:12]}…, the pipeline "
            f"hashes to {spec_hash(pipeline)[:12]}…; run a full repro compile "
            "for a new configuration"
        )

    n = int(manifest["n"])
    shard_size = int(manifest["shard_size"])
    old_coverage = int(manifest["n_users"])
    old_total = int(manifest.get("n_users_total", old_coverage))
    new_total = pipeline.split.train.n_users
    if new_total < old_total:
        raise ConfigurationError(
            f"--update needs an extension of the compiled dataset: the pipeline "
            f"has {new_total} users but the artifact in {artifact_dir} was "
            f"compiled from {old_total}"
        )
    coverage = old_coverage if old_coverage < old_total else new_total

    narrowed = (
        changed_users is not None
        and not state_changed
        and pipeline.model is None
    )
    with _jobs_override(pipeline, n_jobs):
        if narrowed:
            items, scores, users_recomputed = _narrowed_rows(
                pipeline,
                artifact_dir,
                manifest,
                n,
                coverage,
                changed_users,
                block_size=block_size,
            )
        else:
            items, scores = _compute_rows(pipeline, n, coverage, block_size=block_size)
            users_recomputed = coverage

    old_shards = manifest["shards"]
    shards: list[dict[str, Any]] = []
    skipped = rewritten = appended = 0
    for index, start in enumerate(range(0, coverage, shard_size)):
        stop = min(start + shard_size, coverage)
        items_name = _shard_name("items", index)
        scores_name = _shard_name("scores", index)
        items_block = items[start:stop]
        scores_block = scores[start:stop]
        unchanged = False
        if index < len(old_shards):
            entry = old_shards[index]
            old_items = np.load(artifact_dir / entry["items"], mmap_mode="r")
            old_scores = np.load(artifact_dir / entry["scores"], mmap_mode="r")
            unchanged = (
                entry["items"] == items_name
                and entry["scores"] == scores_name
                and int(entry["start"]) == start
                and int(entry["stop"]) == stop
                and old_items.shape == items_block.shape
                and old_items.dtype == items_block.dtype
                and old_scores.shape == scores_block.shape
                and old_scores.dtype == scores_block.dtype
                and old_items.tobytes() == items_block.tobytes()
                and old_scores.tobytes() == scores_block.tobytes()
            )
        if unchanged:
            # The live file already holds exactly these bytes; leaving it in
            # place (same inode) is what makes the update delta-only.
            skipped += 1
        else:
            _atomic_save(artifact_dir / items_name, items_block)
            _atomic_save(artifact_dir / scores_name, scores_block)
            if index < len(old_shards):
                rewritten += 1
            else:
                appended += 1
        shards.append(
            {"items": items_name, "scores": scores_name, "start": start, "stop": stop}
        )

    revision = int(manifest.get("revision", 1)) + 1
    new_manifest: dict[str, Any] = {
        "format": ARTIFACT_FORMAT_VERSION,
        "n": n,
        "n_items": pipeline.split.train.n_items,
        "n_users": coverage,
        "n_users_total": new_total,
        "revision": revision,
        "shard_size": shard_size,
        "shards": shards,
        "spec_sha256": spec_hash(pipeline),
        "algorithm": pipeline.algorithm,
        "mode": "ganc" if pipeline.model is not None else "recommender",
        "prefix_consistent": pipeline.model is None,
        "environment": serving_environment(),
        "score_dtype": str(getattr(pipeline.recommender, "dtype", "float64")),
    }
    _atomic_write_json(artifact_dir / MANIFEST_FILE, new_manifest)

    referenced = {entry["items"].split("/")[-1] for entry in shards}
    referenced |= {entry["scores"].split("/")[-1] for entry in shards}
    _sweep_stale(artifact_dir, referenced, started)
    return UpdateReport(
        artifact_dir=artifact_dir,
        revision=revision,
        n_users=coverage,
        users_recomputed=users_recomputed,
        shards_skipped=skipped,
        shards_rewritten=rewritten,
        shards_appended=appended,
    )


def ingest_and_update(
    pipeline_dir: str | Path,
    artifact_dir: str | Path,
    delta: str | Path,
    *,
    block_size: int | None = None,
    n_jobs: int | None = None,
) -> tuple[Pipeline, RefitReport, UpdateReport]:
    """The full ``repro compile --update --delta FILE`` round trip.

    Loads the saved pipeline, ingests the delta CSV
    (:func:`~repro.data.incremental.read_delta_csv` +
    :func:`~repro.data.incremental.extend_split_interactions`), refits,
    saves the extended pipeline back into ``pipeline_dir`` (so the next
    update extends from here), then delta-compiles the artifact.
    """
    pipeline_dir = Path(pipeline_dir)
    pipeline = Pipeline.load(pipeline_dir)
    extension = extend_split_interactions(pipeline.split, read_delta_csv(delta))
    refitted, refit_report = refit_pipeline(pipeline, extension.split)
    refitted.save(pipeline_dir)
    update_report = compile_artifact_update(
        refitted,
        artifact_dir,
        changed_users=extension.changed_users,
        state_changed=refit_report.state_changed,
        block_size=block_size,
        n_jobs=n_jobs,
    )
    return refitted, refit_report, update_report
