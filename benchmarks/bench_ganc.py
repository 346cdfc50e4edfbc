"""GANC optimizer benchmark: incremental delta-updated core vs pre-refactor.

Measures the two phases the incremental refactor targets, per accuracy
recommender, on the synthetic ML-1M profile:

* **sequential sampled pass** (Algorithm 1, lines 4-10): the pre-refactor
  loop re-fetched every sampled user's accuracy row one user at a time,
  re-derived the full coverage score vector from counts per user, and stored
  dense ``(S, |I|)`` frequency snapshots.  The incremental engine prefetches
  accuracy rows as batched blocks, blends against the delta-updated live
  ``CoverageState`` and records O(N) snapshot deltas.
* **OSLG end-to-end** (both phases): the snapshot-assignment phase was
  already blocked (PR 1); the differential is the sequential pass plus the
  compact delta-snapshot plumbing.

Both implementations are asserted to produce identical collections before
timing.  The legacy reference is re-implemented inline, operation for
operation, from the pre-refactor sources.

The ISSUE's speedup gates (>= 5x sequential, >= 3x end-to-end) are evaluated
on the *headline* configuration — the refetch-bound ItemKNN accuracy
recommender, where the per-user accuracy re-fetch the refactor removes
dominates the sequential cost.  The other configurations are reported for
transparency; their legacy per-user fetch is cheaper, so their ratios are
structurally smaller.

Run directly::

    PYTHONPATH=src python benchmarks/bench_ganc.py                 # full ML-1M profile
    PYTHONPATH=src python benchmarks/bench_ganc.py --scale 0.1 --repeats 1 \
        --min-seq-speedup 0 --min-e2e-speedup 0                    # CI smoke run

Writes ``benchmarks/output/bench_ganc.txt`` and ``BENCH_ganc.json``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.coverage.dynamic import DynamicCoverage
from repro.data.split import RatioSplitter
from repro.data.synthetic import make_dataset
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.ganc.oslg import OSLGOptimizer
from repro.ganc.value_function import combined_item_scores, combined_score_matrix
from repro.recommenders.registry import make_recommender
from repro.utils.rng import ensure_rng
from repro.utils.topn import iter_user_blocks, mask_pairs, top_n_indices, top_n_matrix

from bench_json import write_bench_json, write_bench_text

#: Accuracy recommenders benchmarked; the headline carries the speedup gates.
BENCH_MODELS = ("pop", "psvd100", "itemknn")
HEADLINE = "itemknn"


def _time(fn, *, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# --------------------------------------------------------------------------- #
# Faithful pre-refactor reference (inline re-implementation)
# --------------------------------------------------------------------------- #
def legacy_sequential_pass(model, train, theta, sampled, n):
    """The pre-refactor OSLG sequential pass, operation for operation.

    Per sampled user: one-user accuracy fetch (``unit_scores``), full
    ``1/sqrt(f+1)`` coverage recompute (``coverage.scores``), fresh-array
    θ-blend, canonical top-N, count update, and a dense snapshot row stored
    from a ``frequencies`` copy.
    """
    coverage = DynamicCoverage().fit(train)
    out = np.full((train.n_users, n), -1, dtype=np.int64)
    snapshots = np.zeros((sampled.size, train.n_items), dtype=np.float64)
    for position, user in enumerate(sampled):
        accuracy = model.unit_scores(int(user), n)
        values = combined_item_scores(
            accuracy, coverage.scores(int(user)), float(theta[user])
        )
        exclude = train.user_items(int(user))
        if exclude.size:
            values = values.copy()
            values[exclude] = -np.inf
        items = top_n_indices(values, n)
        out[user, : items.size] = items
        coverage.update(items)
        snapshots[position] = coverage.frequencies
    return out, snapshots


def legacy_oslg(model, train, theta, n, sample_size, seed):
    """The pre-refactor OSLG end-to-end run: sequential pass + dense-snapshot
    blocked assignment phase (the phase PR 1 already batched)."""
    optimizer = OSLGOptimizer(
        DynamicCoverage().fit(train), n, sample_size=sample_size, seed=seed
    )
    sampled = optimizer._sample_users(theta, ensure_rng(seed))
    sampled = sampled[np.argsort(theta[sampled], kind="stable")]
    out, snapshots = legacy_sequential_pass(model, train, theta, sampled, n)
    remaining = np.setdiff1d(np.arange(train.n_users), sampled)
    sampled_theta = theta[sampled]
    for block in iter_user_blocks(remaining.size, None):
        users = remaining[block]
        nearest = np.argmin(np.abs(sampled_theta[None, :] - theta[users, None]), axis=1)
        values = combined_score_matrix(
            model.unit_scores_batch(users, n),
            DynamicCoverage.snapshot_scores(snapshots[nearest]),
            theta[users],
        )
        rows, cols = train.user_items_batch(users)
        mask_pairs(values, rows, cols)
        out[users] = top_n_matrix(values, n)
    return out


def legacy_locally_greedy(model, train, theta, n):
    """The pre-refactor full sequential Locally Greedy pass (Dyn coverage)."""
    coverage = DynamicCoverage().fit(train)
    out = np.full((train.n_users, n), -1, dtype=np.int64)
    for user in range(train.n_users):
        accuracy = model.unit_scores(user, n)
        values = combined_item_scores(accuracy, coverage.scores(user), float(theta[user]))
        exclude = train.user_items(user)
        if exclude.size:
            values = values.copy()
            values[exclude] = -np.inf
        items = top_n_indices(values, n)
        out[user, : items.size] = items
        coverage.update(items)
    return out


# --------------------------------------------------------------------------- #
def bench_model(name, train, theta, n, sample_size, seed, repeats, lines, metrics):
    """Benchmark one accuracy recommender; returns its speedup dict."""
    model = make_recommender(name).fit(train)
    model.unit_scores_batch(np.arange(min(8, train.n_users)), n)  # warm caches

    accuracy_matrix = lambda users: model.unit_scores_pair(users, n)  # noqa: E731

    # Fix the sample once so both sequential passes serve identical users.
    probe = OSLGOptimizer(
        DynamicCoverage().fit(train), n, sample_size=sample_size, seed=seed
    )
    sampled = probe._sample_users(theta, ensure_rng(seed))
    sampled = sampled[np.argsort(theta[sampled], kind="stable")]

    def new_sequential():
        optimizer = OSLGOptimizer(
            DynamicCoverage().fit(train), n, sample_size=sample_size, seed=seed
        )
        return optimizer.run(theta, accuracy_matrix, train.user_items_batch)

    # Sequential sampled pass: legacy loop vs one full new OSLG run restricted
    # to comparing the sampled rows (the new run's snapshot phase cost is
    # excluded by timing the two phases separately below).
    from repro.ganc.incremental import SequentialAssigner

    def new_sequential_only():
        coverage = DynamicCoverage().fit(train)
        out = np.full((train.n_users, n), -1, dtype=np.int64)
        SequentialAssigner(coverage, n).run(
            out,
            sampled,
            theta,
            accuracy_matrix,
            train.user_items_batch,
            scores=np.full(out.shape, np.nan),
        )
        return out

    legacy_seq_s, (legacy_rows, legacy_snapshots) = _time(
        lambda: legacy_sequential_pass(model, train, theta, sampled, n), repeats=repeats
    )
    new_seq_s, new_rows = _time(new_sequential_only, repeats=repeats)
    seq_equal = bool(np.array_equal(legacy_rows[sampled], new_rows[sampled]))

    legacy_e2e_s, legacy_out = _time(
        lambda: legacy_oslg(model, train, theta, n, sample_size, seed), repeats=repeats
    )
    new_e2e_s, new_result = _time(new_sequential, repeats=repeats)
    e2e_equal = bool(np.array_equal(legacy_out, new_result.top_n.items))
    snap_equal = bool(np.array_equal(legacy_snapshots, new_result.snapshots))

    # Full sequential Locally Greedy (Dyn): the other sequential optimizer.
    greedy_legacy_s, greedy_legacy = _time(
        lambda: legacy_locally_greedy(model, train, theta, n), repeats=repeats
    )

    def new_locally_greedy():
        greedy = LocallyGreedyOptimizer(DynamicCoverage().fit(train), n)
        return greedy.run(theta, accuracy_matrix, train.user_items_batch)

    greedy_new_s, greedy_new = _time(new_locally_greedy, repeats=repeats)
    greedy_equal = bool(np.array_equal(greedy_legacy, greedy_new.items))

    equal = seq_equal and e2e_equal and snap_equal and greedy_equal
    speedups = {
        "sequential_sampled_pass": legacy_seq_s / new_seq_s,
        "oslg_end_to_end": legacy_e2e_s / new_e2e_s,
        "locally_greedy_dyn": greedy_legacy_s / greedy_new_s,
    }
    metrics[f"{name}_sequential_legacy_s"] = legacy_seq_s
    metrics[f"{name}_sequential_new_s"] = new_seq_s
    metrics[f"{name}_oslg_legacy_s"] = legacy_e2e_s
    metrics[f"{name}_oslg_new_s"] = new_e2e_s
    metrics[f"{name}_locally_greedy_legacy_s"] = greedy_legacy_s
    metrics[f"{name}_locally_greedy_new_s"] = greedy_new_s

    lines.append(
        f"{name:<10} {'sequential sampled pass':<26} {legacy_seq_s:>9.4f} "
        f"{new_seq_s:>9.4f} {speedups['sequential_sampled_pass']:>7.1f}x  {equal}"
    )
    lines.append(
        f"{name:<10} {'oslg end-to-end':<26} {legacy_e2e_s:>9.4f} "
        f"{new_e2e_s:>9.4f} {speedups['oslg_end_to_end']:>7.1f}x  {equal}"
    )
    lines.append(
        f"{name:<10} {'locally_greedy (Dyn) full':<26} {greedy_legacy_s:>9.4f} "
        f"{greedy_new_s:>9.4f} {speedups['locally_greedy_dyn']:>7.1f}x  {equal}"
    )
    return speedups, equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="ml1m", help="synthetic dataset profile")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--n", type=int, default=5, help="top-N size")
    parser.add_argument("--sample-size", type=int, default=500, help="OSLG sample size S")
    parser.add_argument("--seed", type=int, default=1, help="sampling seed")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--models", nargs="+", default=list(BENCH_MODELS),
        help="accuracy recommenders to benchmark",
    )
    parser.add_argument(
        "--min-seq-speedup", type=float, default=5.0,
        help="fail when the headline sequential-pass speedup falls below this",
    )
    parser.add_argument(
        "--min-e2e-speedup", type=float, default=3.0,
        help="fail when the headline OSLG end-to-end speedup falls below this",
    )
    args = parser.parse_args(argv)

    dataset = make_dataset(args.profile, scale=args.scale)
    train = RatioSplitter(0.8, seed=0).split(dataset).train
    theta = np.random.default_rng(0).random(train.n_users)
    sample_size = max(1, min(args.sample_size, train.n_users - 1))

    lines = [
        f"GANC incremental-core benchmark — profile={args.profile} scale={args.scale} "
        f"({train.n_users} users x {train.n_items} items, top-{args.n}, S={sample_size})",
        "",
        "legacy = pre-refactor implementation (per-user accuracy fetch, full",
        "coverage recompute per user, dense O(S*|I|) snapshots), re-implemented",
        "inline; new = incremental CoverageState engine + delta snapshots.",
        f"gates: headline={HEADLINE} sequential >= {args.min_seq_speedup}x, "
        f"end-to-end >= {args.min_e2e_speedup}x",
        "",
        f"{'model':<10} {'phase':<26} {'legacy_s':>9} {'new_s':>9} {'speedup':>8}  equal",
        "-" * 75,
    ]
    metrics: dict[str, float] = {}
    speedups: dict[str, float] = {}
    all_equal = True
    headline = {}
    for name in args.models:
        model_speedups, equal = bench_model(
            name, train, theta, args.n, sample_size, args.seed, args.repeats,
            lines, metrics,
        )
        all_equal = all_equal and equal
        for phase, value in model_speedups.items():
            speedups[f"{name}_{phase}"] = value
        if name == HEADLINE:
            headline = model_speedups

    lines.append("")
    if headline:
        lines.append(
            f"headline ({HEADLINE}): sequential sampled pass "
            f"{headline['sequential_sampled_pass']:.1f}x, "
            f"oslg end-to-end {headline['oslg_end_to_end']:.1f}x"
        )
    lines.append(f"all outputs identical to legacy: {all_equal}")

    text = "\n".join(lines)
    print(text)
    write_bench_text("ganc", text)
    write_bench_json(
        "ganc",
        config={
            "profile": args.profile,
            "scale": args.scale,
            "n": args.n,
            "sample_size": sample_size,
            "seed": args.seed,
            "repeats": args.repeats,
            "n_users": int(train.n_users),
            "n_items": int(train.n_items),
            "headline": HEADLINE,
        },
        metrics=metrics,
        speedups=speedups,
        equal=all_equal,
    )

    failures = []
    if not all_equal:
        failures.append("legacy/new outputs differ")
    if headline:
        if args.min_seq_speedup and headline["sequential_sampled_pass"] < args.min_seq_speedup:
            failures.append(
                f"headline sequential speedup {headline['sequential_sampled_pass']:.1f}x "
                f"< required {args.min_seq_speedup}x"
            )
        if args.min_e2e_speedup and headline["oslg_end_to_end"] < args.min_e2e_speedup:
            failures.append(
                f"headline end-to-end speedup {headline['oslg_end_to_end']:.1f}x "
                f"< required {args.min_e2e_speedup}x"
            )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
