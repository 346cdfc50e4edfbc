"""Parallel scaling benchmark: thread-pool speedup vs the in-order loop.

Measures the wall-clock of the two heaviest serving paths on the synthetic
ML-1M profile —

* ``Recommender.recommend_all`` (PSVD100, the dense-dataset ARec), and
* the full GANC(PSVD100, θG, Dyn/OSLG) ``recommend_all`` end-to-end —

at ``n_jobs=1`` and every requested ``--jobs`` value, verifies each run is
byte-identical to ``n_jobs=1``, and reports the speedups.  Results are
printed and written to ``benchmarks/output/bench_parallel_scaling.txt``
together with the host and the CPUs this process may use; a ``--jobs``
value above that CPU count measures oversubscription, not scaling.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --scale 8 --jobs 2  # full run
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --scale 0.1 --jobs 2  # smoke run

At ``--scale 8`` the profile has 7,200 users x 8,800 items; at ``--scale 1``
(900 x 1,100) each block is too small for the fan-out to pay off.
``--min-speedup`` turns the report into a gate: the process exits non-zero
when the best end-to-end speedup falls below the floor.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

import numpy as np

from repro.data.split import RatioSplitter
from repro.data.synthetic import make_dataset
from repro.parallel import Executor, effective_n_jobs
from repro.pipeline import Pipeline, ganc_spec
from repro.recommenders.registry import make_recommender

from bench_json import write_bench_json, write_bench_text

N = 5


def _time(fn, *, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_recommend_all(train, jobs, repeats, block_size, lines):
    model = make_recommender("psvd100").fit(train)
    model.recommend_all(N)  # warm caches
    serial_s, serial = _time(
        lambda: model.recommend_all(N, block_size=block_size), repeats=repeats
    )
    lines.append(f"{'recommend_all psvd100':<28} {1:>5} {serial_s:>9.4f} {'1.0x':>8}  True")
    best = 0.0
    for n_jobs in jobs:
        executor = Executor(n_jobs)
        seconds, result = _time(
            lambda: model.recommend_all(N, block_size=block_size, executor=executor),
            repeats=repeats,
        )
        equal = bool(np.array_equal(result.items, serial.items))
        speedup = serial_s / seconds if seconds > 0 else float("inf")
        best = max(best, speedup)
        lines.append(
            f"{'recommend_all psvd100':<28} {n_jobs:>5} "
            f"{seconds:>9.4f} {speedup:>7.1f}x  {equal}"
        )
        if not equal:
            raise SystemExit(f"non-identical output from n_jobs={n_jobs}")
    return best


def bench_ganc_end_to_end(split, scale, jobs, repeats, block_size, lines):
    def build(n_jobs: int) -> Pipeline:
        spec = ganc_spec(
            dataset="ml1m", arec="psvd100", theta="thetaG", coverage="dyn",
            n=N, sample_size=min(500, split.train.n_users), optimizer="oslg",
            scale=scale, seed=0, block_size=block_size, n_jobs=n_jobs,
        )
        return Pipeline(spec).fit(split)

    serial_pipeline = build(1)
    serial_pipeline.recommend_all()  # warm
    serial_s, serial = _time(lambda: serial_pipeline.recommend_all(), repeats=repeats)
    lines.append(f"{'GANC oslg end-to-end':<28} {1:>5} {serial_s:>9.4f} {'1.0x':>8}  True")
    best = 0.0
    for n_jobs in jobs:
        pipeline = build(n_jobs)
        seconds, result = _time(lambda: pipeline.recommend_all(), repeats=repeats)
        equal = bool(np.array_equal(result.items, serial.items))
        speedup = serial_s / seconds if seconds > 0 else float("inf")
        best = max(best, speedup)
        lines.append(
            f"{'GANC oslg end-to-end':<28} {n_jobs:>5} "
            f"{seconds:>9.4f} {speedup:>7.1f}x  {equal}"
        )
        if not equal:
            raise SystemExit(f"non-identical GANC output from n_jobs={n_jobs}")
    return best


def _host() -> str:
    """CPU model and architecture, for the report header."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return f"{line.split(':', 1)[1].strip()} ({platform.machine()})"
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="synthetic ML-1M scale factor")
    parser.add_argument("--jobs", type=int, nargs="+", default=[2, 4], help="thread counts to sweep")
    parser.add_argument("--repeats", type=int, default=2, help="timed repetitions (best-of)")
    parser.add_argument("--block-size", type=int, default=256, help="users per score block")
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail when the best end-to-end speedup is below this floor",
    )
    args = parser.parse_args(argv)

    dataset = make_dataset("ml1m", scale=args.scale, seed=0)
    split = RatioSplitter(0.5, seed=0).split(dataset)
    train = split.train
    cpus_visible = effective_n_jobs(-1)
    host = _host()

    lines = [
        f"parallel scaling on synthetic ML-1M x {args.scale}: "
        f"{train.n_users} users x {train.n_items} items",
        f"host: {host}, {cpus_visible} CPUs visible",
        "",
        f"{'workload':<28} {'jobs':>5} {'seconds':>9} {'speedup':>8}  equal",
        "-" * 63,
    ]
    best_recommend = bench_recommend_all(train, args.jobs, args.repeats, args.block_size, lines)
    lines.append("")
    best_ganc = bench_ganc_end_to_end(
        split, args.scale, args.jobs, args.repeats, args.block_size, lines
    )
    best = max(best_recommend, best_ganc)
    lines.append("")
    lines.append(f"best end-to-end speedup: {best:.2f}x (floor: {args.min_speedup}x)")

    text = "\n".join(lines)
    print(text)
    output = write_bench_text("parallel_scaling", text)
    print(f"\nwritten to {output}")
    write_bench_json(
        "parallel_scaling",
        config={
            "scale": args.scale,
            "repeats": args.repeats,
            "block_size": args.block_size,
            "jobs": " ".join(str(j) for j in args.jobs),
            "host": host,
            "cpus_visible": cpus_visible,
            "n_users": int(train.n_users),
            "n_items": int(train.n_items),
        },
        metrics={"best_speedup": best},
        speedups={
            "recommend_all_best": best_recommend,
            "ganc_end_to_end_best": best_ganc,
        },
        equal=True,
    )

    if best < args.min_speedup:
        print(f"FAILED: best speedup {best:.2f}x below the {args.min_speedup}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
