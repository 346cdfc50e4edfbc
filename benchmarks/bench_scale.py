"""Scale benchmark: out-of-core ingestion + sparse ItemKNN at the 10M-rating mark.

Exercises the whole scale subsystem end to end on one synthetic workload:

1. **generate** — stream a popularity-biased ratings CSV to disk
   (:func:`repro.data.synthetic.stream_ratings_csv`; Gumbel top-k sampling,
   never materialized in memory);
2. **ingest** — ``repro ingest`` path: chunked CSV→npy-shard store
   (:func:`repro.data.outofcore.ingest_csv`);
3. **load + split** — open the store memmap-backed and apply the per-user
   ratio split;
4. **fit** — ItemKNN's blocked gram scan on the train split, through a
   pipeline spec that reads the store;
5. **score** — ``recommend_block`` over a user sample, in
   :data:`~repro.utils.topn.DEFAULT_BLOCK_SIZE` blocks as the compile scores;
6. **compile** — the pipeline into a serveable artifact.

Peak RSS (``resource.getrusage``) is recorded throughout — the point of the
out-of-core path is that the 10M-rating workload *fits on one host* — and
``--max-rss-mb`` turns it into a gate (0 disables; the CI scale-smoke job
sets a ceiling).  The scan's output is pinned to a dense-gram reference by
the golden fixtures and ``tests/test_scale.py``, not here.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scale.py                  # full 10M
    PYTHONPATH=src python benchmarks/bench_scale.py --users 2000 \\
        --items 1500 --ratings 100000 --sample-users 256 \\
        --chunk-size 40000                                           # small run

Both write ``benchmarks/output/BENCH_scale.json`` and ``bench_scale.txt``,
the committed 10M-rating results.  A smoke run that must leave them as they
are points :data:`bench_json.OUTPUT_DIR` at a temporary directory and calls
:func:`main`, as ``run_all.py --smoke`` and the CI scale-smoke step do.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.outofcore import ingest_csv, load_outofcore
from repro.data.split import RatioSplitter
from repro.data.synthetic import stream_ratings_csv
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    Pipeline,
    PipelineSpec,
)
from repro.serving import compile_artifact
from repro.utils.topn import iter_user_blocks

from bench_json import write_bench_json, write_bench_text

K = 50
SHARD_SIZE = 4096
TRAIN_RATIO = 0.8
SEED = 0


def _peak_rss_mb() -> float:
    """Process peak RSS in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_benchmark(args) -> tuple[list[str], dict]:
    """Execute the benchmark; returns (report lines, metrics)."""
    lines = [
        "scale benchmark (out-of-core ingest + sparse ItemKNN)",
        f"users={args.users} items={args.items} ratings={args.ratings} "
        f"sample_users={args.sample_users} chunk_size={args.chunk_size} "
        f"k={K} n={args.n}",
        "",
    ]
    metrics: dict[str, float] = {}
    rng = np.random.default_rng(SEED)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        csv_path = workdir / "ratings.csv"
        gen_s, written = _time(
            lambda: stream_ratings_csv(
                csv_path,
                n_users=args.users,
                n_items=args.items,
                target_ratings=args.ratings,
                seed=SEED,
                max_user_ratings=args.max_user_ratings,
            )
        )
        lines.append(
            f"generate: {written} rows in {gen_s:.1f}s "
            f"({written / gen_s:,.0f} rows/s, {csv_path.stat().st_size >> 20} MB)"
        )
        metrics["generate_s"] = gen_s
        metrics["generate_rows_per_s"] = written / gen_s

        store = workdir / "store"
        ingest_s, report = _time(
            lambda: ingest_csv(csv_path, store, chunk_size=args.chunk_size)
        )
        lines.append(
            f"ingest: {report.n_ratings} ratings -> {report.n_shards} shard(s) "
            f"in {ingest_s:.1f}s ({report.n_ratings / ingest_s:,.0f} rows/s)"
        )
        metrics["ingest_s"] = ingest_s
        metrics["ingest_rows_per_s"] = report.n_ratings / ingest_s

        load_s, dataset = _time(lambda: load_outofcore(store))
        split_s, split = _time(
            lambda: RatioSplitter(TRAIN_RATIO, seed=SEED).split(dataset)
        )
        train = split.train
        lines.append(
            f"load (memmap): {load_s:.1f}s; split κ={TRAIN_RATIO}: {split_s:.1f}s "
            f"({train.n_ratings} train ratings)"
        )
        metrics["load_s"] = load_s
        metrics["split_s"] = split_s
        metrics["n_train_ratings"] = train.n_ratings
        metrics["rss_after_load_mb"] = _peak_rss_mb()

        spec = PipelineSpec(
            recommender=ComponentSpec("itemknn", params={"k": K}),
            dataset=DatasetSpec(key="scale", path=str(store)),
            evaluation=EvaluationSpec(n=args.n),
            seed=SEED,
        )
        pipeline = Pipeline(spec)
        fit_s, _ = _time(lambda: pipeline.fit(split))
        lines.append(
            f"fit: {fit_s:.1f}s ({train.n_ratings / fit_s:,.0f} ratings/s)"
        )
        metrics["fit_s"] = fit_s
        metrics["rss_after_fit_mb"] = _peak_rss_mb()

        candidates = train.users_with_ratings()
        sample = rng.choice(
            candidates, size=min(args.sample_users, candidates.size), replace=False
        )
        sample.sort()
        score_s, _ = _time(
            lambda: [
                pipeline.recommender.recommend_block(sample[block], args.n)
                for block in iter_user_blocks(sample.size)
            ]
        )
        lines.append(
            f"score {sample.size} users: {score_s:.2f}s "
            f"({sample.size / score_s:,.0f} users/s)"
        )
        metrics["score_s"] = score_s
        metrics["score_users_per_s"] = sample.size / score_s
        metrics["rss_after_score_mb"] = _peak_rss_mb()

        artifact = workdir / "artifact"
        compile_s, _ = _time(
            lambda: compile_artifact(pipeline, artifact, shard_size=SHARD_SIZE)
        )
        lines.append(
            f"compile: {compile_s:.1f}s ({train.n_users / compile_s:,.0f} users/s)"
        )
        metrics["compile_s"] = compile_s
        metrics["compile_users_per_s"] = train.n_users / compile_s

    metrics["peak_rss_mb"] = _peak_rss_mb()
    lines.append(f"peak RSS: {metrics['peak_rss_mb']:,.0f} MB")
    return lines, metrics


def main(argv=None) -> int:
    """CLI entry point; writes the report and returns an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=125_000)
    parser.add_argument("--items", type=int, default=40_000)
    parser.add_argument("--ratings", type=int, default=10_000_000)
    parser.add_argument(
        "--sample-users", type=int, default=2048,
        help="users scored for the scoring-throughput measurement",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=2_000_000,
        help="rows per ingest shard (bounds ingest memory)",
    )
    parser.add_argument(
        "--max-user-ratings", type=int, default=1_000,
        help="per-user activity cap of the generated workload",
    )
    parser.add_argument("--n", type=int, default=10, help="top-N size scored")
    parser.add_argument(
        "--max-rss-mb", type=float, default=0.0,
        help="fail if process peak RSS exceeds this many MB (0 disables)",
    )
    args = parser.parse_args(argv)

    lines, metrics = run_benchmark(args)
    report = "\n".join(lines)
    print(report)
    output = write_bench_text("scale", report)
    print(f"\nwritten to {output}")
    write_bench_json(
        "scale",
        config={
            "users": args.users,
            "items": args.items,
            "ratings": args.ratings,
            "sample_users": args.sample_users,
            "chunk_size": args.chunk_size,
            "max_user_ratings": args.max_user_ratings,
            "k": K,
            "n": args.n,
            "train_ratio": TRAIN_RATIO,
        },
        metrics=metrics,
    )
    if args.max_rss_mb > 0 and metrics["peak_rss_mb"] > args.max_rss_mb:
        print(
            f"FAIL: peak RSS {metrics['peak_rss_mb']:,.0f} MB exceeds ceiling "
            f"{args.max_rss_mb:,.0f} MB"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
