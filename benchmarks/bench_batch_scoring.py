"""Throughput benchmark: per-user loop vs batched scoring engine.

Measures ``recommend_all`` (blocked ``predict_matrix`` + 2-D selection)
against a one-user-at-a-time loop over one-row blocks for several
recommenders, plus Locally Greedy's blocked stateless-coverage assignment
against its per-user loop, on the synthetic ML-1M-scale profile.
Results are printed as a table and written to
``benchmarks/output/bench_batch_scoring.txt``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_batch_scoring.py             # full ML-1M scale
    PYTHONPATH=src python benchmarks/bench_batch_scoring.py --scale 0.1 # CI smoke run

The batched and per-user paths produce identical top-N collections (enforced
here and by ``tests/test_batch_scoring.py``); the interesting number is the
speedup, which the ISSUE targets at >= 5x for ``recommend_all``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.coverage.static import StaticCoverage
from repro.data.split import RatioSplitter
from repro.data.synthetic import make_dataset
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.recommenders.base import Recommender
from repro.recommenders.registry import make_recommender

from bench_json import write_bench_json, write_bench_text

N = 5

#: Recommenders benchmarked for recommend_all throughput.  RSVD is configured
#: with few epochs — fitting time is irrelevant to the scoring benchmark.
BENCH_MODELS: dict[str, dict] = {
    "pop": {},
    "rand": {},
    "psvd100": {},
    "rsvd": {"n_epochs": 3},
    "itemknn": {},
}


def _loop_recommend_all(model: Recommender, n: int) -> np.ndarray:
    out = np.full((model.train_data.n_users, n), -1, dtype=np.int64)
    for user in range(model.train_data.n_users):
        items = model.recommend(user, n)
        out[user, : items.size] = items
    return out


def _time(fn, *, repeats: int = 1) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_recommenders(
    train, repeats: int, lines: list[str]
) -> tuple[dict[str, float], bool]:
    """Per-model speedups, and whether every model's two paths agreed."""
    n_users = train.n_users
    speedups: dict[str, float] = {}
    all_equal = True
    header = (
        f"{'model':<10} {'loop_s':>9} {'batch_s':>9} {'speedup':>8} "
        f"{'loop_u/s':>10} {'batch_u/s':>11}  equal"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, kwargs in BENCH_MODELS.items():
        model = make_recommender(name, **kwargs).fit(train)
        model.recommend_all(N)  # warm caches (CSR, user slices, BLAS)
        loop_s, loop_items = _time(lambda: _loop_recommend_all(model, N), repeats=repeats)
        batch_s, batch_top = _time(lambda: model.recommend_all(N), repeats=repeats)
        equal = bool(np.array_equal(loop_items, batch_top.items))
        all_equal = all_equal and equal
        speedup = loop_s / batch_s if batch_s > 0 else float("inf")
        speedups[name] = speedup
        lines.append(
            f"{name:<10} {loop_s:>9.4f} {batch_s:>9.4f} {speedup:>7.1f}x "
            f"{n_users / loop_s:>10.0f} {n_users / batch_s:>11.0f}  {equal}"
        )
    return speedups, all_equal


def bench_ganc(train, repeats: int, lines: list[str]) -> tuple[dict[str, float], bool]:
    """The GANC leg's speedup, and whether its two paths agreed."""
    theta = np.random.default_rng(0).random(train.n_users)
    model = make_recommender("pop").fit(train)
    model.recommend_all(N)

    def accuracy_matrix(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return model.unit_scores_pair(users, N)

    lines.append("")
    header = f"{'ganc phase':<28} {'loop_s':>9} {'batch_s':>9} {'speedup':>8}  equal"
    lines.append(header)
    lines.append("-" * len(header))

    # Independent branch: static coverage, whole assignment is batched;
    # run() walks the same users one-row block at a time.
    optimizer = LocallyGreedyOptimizer(StaticCoverage().fit(train), N)
    greedy_loop_s, seq = _time(
        lambda: optimizer.run(
            theta, accuracy_matrix, train.user_items_batch, n_users=train.n_users
        ),
        repeats=repeats,
    )
    greedy_batch_s, blocked = _time(
        lambda: optimizer.run_independent(
            theta, accuracy_matrix, train.user_items_batch, n_users=train.n_users
        ),
        repeats=repeats,
    )
    equal = bool(np.array_equal(seq.items, blocked.items))
    lines.append(
        f"{'locally_greedy (Stat)':<28} {greedy_loop_s:>9.4f} {greedy_batch_s:>9.4f} "
        f"{greedy_loop_s / greedy_batch_s:>7.1f}x  {equal}"
    )
    return {"locally_greedy_stat": greedy_loop_s / greedy_batch_s}, equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="ml1m", help="synthetic dataset profile")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero when the mean recommend_all speedup falls below this",
    )
    args = parser.parse_args(argv)

    dataset = make_dataset(args.profile, scale=args.scale)
    train = RatioSplitter(0.8, seed=0).split(dataset).train

    lines = [
        f"batch scoring benchmark — profile={args.profile} scale={args.scale} "
        f"({train.n_users} users x {train.n_items} items, {train.n_ratings} train ratings, "
        f"top-{N})",
        "",
    ]
    speedups, recommenders_equal = bench_recommenders(train, args.repeats, lines)
    ganc_speedups, ganc_equal = bench_ganc(train, args.repeats, lines)

    mean_speedup = float(np.mean(list(speedups.values())))
    lines.append("")
    lines.append(f"mean recommend_all speedup: {mean_speedup:.1f}x")

    text = "\n".join(lines)
    print(text)
    write_bench_text("batch_scoring", text)
    write_bench_json(
        "batch_scoring",
        config={
            "profile": args.profile,
            "scale": args.scale,
            "repeats": args.repeats,
            "n": N,
            "n_users": int(train.n_users),
            "n_items": int(train.n_items),
        },
        metrics={"mean_recommend_all_speedup": mean_speedup},
        speedups={
            **{f"recommend_all_{name}": value for name, value in speedups.items()},
            **ganc_speedups,
        },
        equal=recommenders_equal and ganc_equal,
    )

    if args.min_speedup and mean_speedup < args.min_speedup:
        print(f"FAIL: mean speedup {mean_speedup:.1f}x < required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
