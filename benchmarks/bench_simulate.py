"""Simulation benchmark: replay throughput + windowed drift series.

Builds a pipeline on the synthetic ML-1M profile, compiles a top-N
artifact, and measures the traffic simulator in its two replay modes:

* **Offline sharded replay** — a ``burst`` trace answered by the
  memory-mapped :class:`~repro.serving.store.RecommendationStore`, fanned
  over the executor.  Headline number: events/second, measured serial and
  threaded, with the two runs byte-compared (the determinism contract is
  part of what this bench guards).
* **Online replay** — a live GANC pipeline with dynamic coverage consuming
  a ``coldstart`` trace strictly in order, feedback flowing back into the
  coverage state through the O(N) delta after every event.

The emitted ``BENCH_simulate.json`` carries the throughput metrics plus the
per-window coverage/novelty/accuracy series of the offline run (flattened
as ``window_<i>_<metric>`` — the bench schema wants flat finite numbers),
so coverage drift under traffic is tracked PR-over-PR alongside speed.

Run directly::

    PYTHONPATH=src python benchmarks/bench_simulate.py              # full scale
    PYTHONPATH=src python benchmarks/bench_simulate.py --scale 0.05 \\
        --events 400 --window 100 --online-events 120 --repeats 1   # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
)
from repro.serving import compile_artifact
from repro.simulate import (
    PipelineSource,
    SimulationConfig,
    StoreSource,
    build_trace,
    canonical_bytes,
    run_simulation,
)

from bench_json import write_bench_json, write_bench_text

N = 10
FEEDBACK = "position-biased"


def _time(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _window_series(report: dict) -> dict[str, float]:
    """Flatten the per-window drift series into flat finite bench metrics."""
    series: dict[str, float] = {}
    for window in report["windows"]:
        index = window["index"]
        series[f"window_{index}_coverage"] = window["cumulative_coverage"]
        series[f"window_{index}_gini"] = window["cumulative_gini"]
        for key in ("precision", "recall", "epc", "arp"):
            if window[key] is not None:
                series[f"window_{index}_{key}"] = window[key]
    return series


def run_benchmark(
    scale: float,
    events: int,
    window: int,
    online_events: int,
    *,
    shards: int,
    jobs: int,
    repeats: int,
    seed: int,
):
    """Execute the benchmark; returns (report lines, metrics, speedups, equal)."""
    lines = [
        "simulation benchmark (replay throughput + windowed drift)",
        f"scale={scale} events={events} window={window} "
        f"online_events={online_events} n={N} shards={shards} jobs={jobs} "
        f"repeats={repeats} feedback={FEEDBACK}",
        "",
    ]
    metrics: dict[str, float] = {}

    spec = PipelineSpec(
        recommender=ComponentSpec("pop"),
        dataset=DatasetSpec(key="ml1m", scale=scale),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )
    pipeline = Pipeline(spec).fit()
    split = pipeline.split
    n_users = split.train.n_users
    n_items = split.train.n_items
    lines.append(f"ml1m profile at scale {scale}: {n_users} users x {n_items} items")

    with tempfile.TemporaryDirectory() as tmp:
        pipeline_dir = Path(tmp) / "pipeline"
        artifact_dir = Path(tmp) / "artifact"
        pipeline.save(pipeline_dir)
        compile_artifact(pipeline_dir, artifact_dir, shard_size=4096, n_jobs=jobs)

        config = SimulationConfig(
            scenario="burst", n_events=events, n=N, feedback=FEEDBACK,
            window=window, seed=seed, shards=shards,
        )
        source = StoreSource(artifact_dir)
        trace = build_trace(
            "burst", n_users=source.n_users, n_items=source.n_items,
            n_events=events, seed=seed,
        )

        serial_s, serial = _time(
            lambda: run_simulation(
                source, config, split=split,
                n_jobs=1, trace=trace,
            ),
            repeats=repeats,
        )
        threaded_s, threaded = _time(
            lambda: run_simulation(
                source, config, split=split,
                n_jobs=jobs, trace=trace,
            ),
            repeats=repeats,
        )
        equal = canonical_bytes(serial.report) == canonical_bytes(threaded.report)
        lines.append(
            f"offline store replay (burst, serial): {events / serial_s:,.0f} events/s"
        )
        lines.append(
            f"offline store replay (burst, thread x{jobs}): "
            f"{events / threaded_s:,.0f} events/s"
        )
        lines.append(
            "serial and threaded reports byte-identical: " + ("yes" if equal else "NO")
        )
        metrics.update(
            replay_serial_s=serial_s,
            replay_threaded_s=threaded_s,
            events_per_s=events / threaded_s,
            events_per_s_serial=events / serial_s,
            consumed=serial.report["totals"]["consumed"],
            cumulative_coverage=serial.report["totals"]["cumulative_coverage"],
            cumulative_gini=serial.report["totals"]["cumulative_gini"],
        )
        metrics.update(_window_series(serial.report))
        speedups = {"thread_vs_serial": serial_s / threaded_s}

    # Online mode: a live GANC pipeline with dynamic coverage, strictly
    # in-order feedback.  Refit per repeat so every timed run starts from
    # the same pristine coverage state.
    ganc_spec = PipelineSpec(
        recommender=ComponentSpec("pop"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=100, optimizer="oslg"),
        dataset=DatasetSpec(key="ml1m", scale=scale),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )
    online_config = SimulationConfig(
        scenario="coldstart", n_events=online_events, n=N, feedback=FEEDBACK,
        window=max(1, online_events // 4), seed=seed, shards=shards, verify=True,
    )
    best_online = float("inf")
    online = None
    for _ in range(repeats):
        online_source = PipelineSource(Pipeline(ganc_spec).fit())
        start = time.perf_counter()
        online = run_simulation(online_source, online_config)
        best_online = min(best_online, time.perf_counter() - start)
    lines.append(
        f"online GANC replay (coldstart, verified): "
        f"{online_events / best_online:,.0f} events/s"
    )
    lines.append(
        f"online cumulative coverage after {online_events} events: "
        f"{online.report['totals']['cumulative_coverage']:.4f} "
        f"(offline store run: {metrics['cumulative_coverage']:.4f})"
    )
    metrics.update(
        online_replay_s=best_online,
        online_events_per_s=online_events / best_online,
        online_cumulative_coverage=online.report["totals"]["cumulative_coverage"],
        online_cumulative_gini=online.report["totals"]["cumulative_gini"],
    )
    return lines, metrics, speedups, equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--events", type=int, default=20_000)
    parser.add_argument("--window", type=int, default=2_000)
    parser.add_argument("--online-events", type=int, default=600)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    lines, metrics, speedups, equal = run_benchmark(
        args.scale,
        args.events,
        args.window,
        args.online_events,
        shards=args.shards,
        jobs=args.jobs,
        repeats=args.repeats,
        seed=args.seed,
    )
    report = "\n".join(lines)
    print(report)
    output = write_bench_text("simulate", report)
    print(f"\nwritten to {output}")
    write_bench_json(
        "simulate",
        config={
            "scale": args.scale,
            "events": args.events,
            "window": args.window,
            "online_events": args.online_events,
            "n": N,
            "shards": args.shards,
            "jobs": args.jobs,
            "repeats": args.repeats,
            "seed": args.seed,
            "feedback": FEEDBACK,
        },
        metrics=metrics,
        speedups=speedups,
        equal=equal,
    )
    if not equal:
        print("FAIL: serial and threaded replay reports differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
