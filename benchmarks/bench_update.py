"""Delta-update benchmark: ``compile --update`` vs. a from-scratch recompile.

Builds a bare ItemKNN pipeline on the synthetic ML-1M profile,
compiles a baseline artifact, and then measures the two ingestion paths an
operator can take when new ratings arrive:

* **scratch** — fit a fresh pipeline on the extended split and run a full
  ``compile_artifact`` into a new directory (the only option before
  ``repro compile --update`` existed);
* **update** — load the saved pipeline, delta-refit it
  (:func:`repro.serving.refit_pipeline`), and run
  :func:`repro.serving.compile_artifact_update` against the live artifact,
  which byte-compares shards and rewrites only the ones that changed.

Two delta shapes are measured, because they exercise opposite ends of the
update path:

* **rating delta** (``--delta-events`` appended ratings) — the item-item
  similarity state changes, so every row is recomputed and the win over scratch is
  the avoided full refit plus skipped unchanged shards;
* **cold-start delta** (``--coldstart-users`` new users, no ratings) — the
  model state is bitwise unchanged, so the narrowed path recomputes only
  the arrivals' rows and skips every full shard in place (inode-stable).

After every timed update the artifact is byte-compared against a
from-scratch compile of the extended dataset — shard bytes and manifest
(modulo ``revision``) must match exactly — and ``equal`` is reported in
``BENCH_update.json`` only if all comparisons held.  ``--min-coldstart-speedup``
(default 2.0) gates the cold-start update-vs-scratch wall-clock ratio;
pass ``0`` to disable (CI smoke).

Run directly::

    PYTHONPATH=src python benchmarks/bench_update.py                 # full scale
    PYTHONPATH=src python benchmarks/bench_update.py --scale 0.1 \\
        --delta-events 50 --coldstart-users 20 --repeats 1 \\
        --min-coldstart-speedup 0                                    # CI smoke run
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data import extend_split
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    Pipeline,
    PipelineSpec,
)
from repro.serving import (
    compile_artifact,
    compile_artifact_update,
    load_manifest,
    refit_pipeline,
)

from bench_json import write_bench_json, write_bench_text

N = 5
SHARD_SIZE = 256


def _time(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _spec(scale: float) -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec("itemknn"),
        dataset=DatasetSpec(key="ml1m", scale=scale),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )


def _same_artifact(updated: Path, scratch: Path) -> bool:
    """Shard bytes and manifest (modulo revision) must match exactly."""
    left, right = load_manifest(updated), load_manifest(scratch)
    left.pop("revision"), right.pop("revision")
    if left != right:
        return False
    return all(
        (updated / entry[kind]).read_bytes() == (scratch / entry[kind]).read_bytes()
        for entry in left["shards"]
        for kind in ("items", "scores")
    )


def _rating_delta(split, events: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return extend_split(
        split,
        rng.integers(0, split.train.n_users, size=events),
        rng.integers(0, split.train.n_items, size=events),
        np.ones(events),
    )


def _coldstart_delta(split, arrivals: int):
    empty = np.empty(0, dtype=np.int64)
    return extend_split(
        split, empty, empty, np.empty(0), n_users=split.train.n_users + arrivals
    )


def _measure_path(
    label: str,
    scale: float,
    extension,
    pipeline_dir: Path,
    base_artifact: Path,
    workdir: Path,
    repeats: int,
):
    """Time update vs. scratch for one delta; returns (lines, metrics, report)."""

    def scratch():
        scratch_dir = workdir / f"{label}-scratch"
        shutil.rmtree(scratch_dir, ignore_errors=True)
        fresh = Pipeline(_spec(scale)).fit(extension.split)
        compile_artifact(fresh, scratch_dir, shard_size=SHARD_SIZE)
        return scratch_dir

    def update(target: Path):
        refitted, refit_report = refit_pipeline(Pipeline.load(pipeline_dir), extension.split)
        report = compile_artifact_update(
            refitted,
            target,
            changed_users=extension.changed_users,
            state_changed=refit_report.state_changed,
        )
        return report

    scratch_s, scratch_dir = _time(scratch, repeats=repeats)
    # The baseline-artifact copy is harness bookkeeping (each repeat must
    # start from the live artifact, not a half-updated one), so it stays
    # outside the timed region.
    update_s = float("inf")
    update_dir = workdir / f"{label}-update"
    report = None
    for _ in range(repeats):
        shutil.rmtree(update_dir, ignore_errors=True)
        shutil.copytree(base_artifact, update_dir)
        elapsed, report = _time(lambda: update(update_dir))
        update_s = min(update_s, elapsed)
    equal = _same_artifact(update_dir, scratch_dir)
    lines = [
        f"{label}: update {update_s:.3f}s vs scratch {scratch_s:.3f}s "
        f"({scratch_s / update_s:.2f}x) — {report.users_recomputed}/{report.n_users} "
        f"rows recomputed, {report.shards_skipped} shard(s) skipped, "
        f"{report.shards_rewritten} rewritten, {report.shards_appended} appended, "
        f"byte-identical={equal}",
    ]
    metrics = {
        f"{label}_update_s": update_s,
        f"{label}_scratch_s": scratch_s,
        f"{label}_rows_recomputed": report.users_recomputed,
        f"{label}_shards_skipped": report.shards_skipped,
    }
    return lines, metrics, scratch_s / update_s, equal


def run_benchmark(scale: float, repeats: int, delta_events: int, coldstart_users: int):
    """Execute the benchmark; returns (report lines, metrics, speedups, equal)."""
    lines = [
        "delta-update benchmark (compile --update vs from-scratch recompile)",
        f"scale={scale} repeats={repeats} delta_events={delta_events} "
        f"coldstart_users={coldstart_users} n={N} shard_size={SHARD_SIZE}",
        "",
    ]
    metrics: dict[str, float] = {}
    speedups: dict[str, float] = {}
    pipeline = Pipeline(_spec(scale)).fit()
    split = pipeline.split
    lines.append(
        f"baseline: {split.train.n_users} users, {split.train.n_items} items, "
        f"{split.train.n_ratings} train ratings"
    )

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        pipeline_dir = workdir / "pipeline"
        base_artifact = workdir / "artifact"
        pipeline.save(pipeline_dir)
        compile_s, _ = _time(
            lambda: compile_artifact(pipeline_dir, base_artifact, shard_size=SHARD_SIZE),
            repeats=repeats,
        )
        lines.append(f"baseline compile: {compile_s:.3f}s")
        metrics["baseline_compile_s"] = compile_s

        all_equal = True
        for label, extension in (
            ("rating", _rating_delta(split, delta_events)),
            ("coldstart", _coldstart_delta(split, coldstart_users)),
        ):
            path_lines, path_metrics, speedup, equal = _measure_path(
                label, scale, extension, pipeline_dir, base_artifact, workdir, repeats
            )
            lines.extend(path_lines)
            metrics.update(path_metrics)
            speedups[f"{label}_update_vs_scratch"] = speedup
            all_equal = all_equal and equal

    lines.append("")
    lines.append(
        "updated artifacts byte-identical to from-scratch compiles of the "
        f"extended dataset: {all_equal}"
    )
    return lines, metrics, speedups, all_equal


def main(argv=None) -> int:
    """CLI entry point; writes the report and returns an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--delta-events", type=int, default=1000,
        help="appended ratings in the rating-delta scenario",
    )
    parser.add_argument(
        "--coldstart-users", type=int, default=100,
        help="new (ratingless) users in the cold-start scenario",
    )
    parser.add_argument(
        "--min-coldstart-speedup", type=float, default=2.0,
        help="fail unless the cold-start update beats scratch by this factor "
             "(0 disables the gate; default 2.0)",
    )
    args = parser.parse_args(argv)

    lines, metrics, speedups, equal = run_benchmark(
        args.scale, args.repeats, args.delta_events, args.coldstart_users
    )
    report = "\n".join(lines)
    print(report)
    output = write_bench_text("update", report)
    print(f"\nwritten to {output}")
    write_bench_json(
        "update",
        config={
            "scale": args.scale,
            "repeats": args.repeats,
            "delta_events": args.delta_events,
            "coldstart_users": args.coldstart_users,
            "n": N,
            "shard_size": SHARD_SIZE,
        },
        metrics=metrics,
        speedups=speedups,
        equal=equal,
    )
    if not equal:
        print("FAIL: an updated artifact diverged from the from-scratch compile")
        return 1
    gate = args.min_coldstart_speedup
    if gate > 0 and speedups["coldstart_update_vs_scratch"] < gate:
        print(
            f"FAIL: cold-start update only {speedups['coldstart_update_vs_scratch']:.2f}x "
            f"faster than scratch (required {gate:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
