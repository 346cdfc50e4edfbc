"""Ablation studies on the design choices GANC makes.

Two ablations beyond the paper's published figures (DESIGN.md lists why):

* **OSLG vs exact Locally Greedy** — how much coverage/accuracy the sampling
  heuristic gives up relative to the full sequential pass, and the wall-clock
  ratio between them.
* **User ordering** — the sequential pass sorted by increasing θ (the paper's
  choice) versus arbitrary order and decreasing θ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.evaluation.evaluator import Evaluator
from repro.experiments.datasets import load_experiment_split
from repro.experiments.runner import ExperimentTable, build_accuracy_recommender
from repro.metrics.report import MetricReport
from repro.pipeline import Pipeline, ganc_spec
from repro.preferences.generalized import GeneralizedPreference
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class AblationRow:
    """Metrics and wall-clock time of one ablation configuration."""

    configuration: str
    report: MetricReport
    seconds: float


def run_oslg_vs_greedy(
    *,
    dataset_key: str = "ml100k",
    arec_name: str = "psvd100",
    n: int = 5,
    sample_sizes: Sequence[int] = (50, 100, 250),
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[AblationRow], ExperimentTable]:
    """Compare OSLG at several sample sizes against the exact sequential pass."""
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    evaluator = Evaluator(split, n=n, block_size=block_size, n_jobs=n_jobs)
    theta = GeneralizedPreference().estimate(split.train)
    arec = build_accuracy_recommender(arec_name, seed=seed, scale_hint=scale)
    arec.fit(split.train)

    rows: list[AblationRow] = []
    table = ExperimentTable(
        title=f"Ablation: OSLG vs exact Locally Greedy on {dataset_key}",
        headers=["Configuration", "F-measure@N", "Coverage@N", "Gini@N", "seconds"],
    )

    def spec_for(sample_size: int, optimizer: str):
        """The ablation's spec with one (sample_size, optimizer) combination."""
        return ganc_spec(
            dataset=dataset_key, arec=arec_name, theta="thetaG", coverage="dyn",
            n=n, sample_size=sample_size, optimizer=optimizer, scale=scale,
            seed=seed, block_size=block_size, n_jobs=n_jobs,
        )

    configurations = [("LocallyGreedy (exact)", spec_for(split.train.n_users, "locally_greedy"))]
    for requested in sample_sizes:
        effective = max(1, min(int(requested), split.train.n_users))
        configurations.append((f"OSLG S={requested}", spec_for(effective, "oslg")))

    for label, spec in configurations:
        pipeline = Pipeline(spec, recommender=arec, preference=theta).fit(split)
        started = time.perf_counter()
        recommendations = pipeline.recommend_all()
        elapsed = time.perf_counter() - started
        run = evaluator.evaluate_recommendations(recommendations, algorithm=label)
        rows.append(AblationRow(configuration=label, report=run.report, seconds=elapsed))
        table.add_row(
            [label, run.report.f_measure, run.report.coverage, run.report.gini, round(elapsed, 3)]
        )
    return rows, table


def run_ordering_ablation(
    *,
    dataset_key: str = "ml100k",
    arec_name: str = "psvd100",
    n: int = 5,
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[AblationRow], ExperimentTable]:
    """Compare increasing / arbitrary / decreasing θ orderings of the sequential pass."""
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    evaluator = Evaluator(split, n=n, block_size=block_size, n_jobs=n_jobs)
    theta = GeneralizedPreference().estimate(split.train)
    arec = build_accuracy_recommender(arec_name, seed=seed, scale_hint=scale)
    arec.fit(split.train)

    rows: list[AblationRow] = []
    table = ExperimentTable(
        title=f"Ablation: sequential user ordering on {dataset_key}",
        headers=["Ordering", "F-measure@N", "Coverage@N", "Gini@N", "seconds"],
    )
    for ordering in ("increasing", "arbitrary", "decreasing"):
        spec = ganc_spec(
            dataset=dataset_key, arec=arec_name, theta="thetaG", coverage="dyn",
            n=n, sample_size=split.train.n_users, optimizer="locally_greedy",
            theta_order=ordering, scale=scale, seed=seed, block_size=block_size,
            n_jobs=n_jobs,
        )
        pipeline = Pipeline(spec, recommender=arec, preference=theta).fit(split)
        started = time.perf_counter()
        recommendations = pipeline.recommend_all()
        elapsed = time.perf_counter() - started
        run = evaluator.evaluate_recommendations(recommendations, algorithm=f"order={ordering}")
        rows.append(AblationRow(configuration=ordering, report=run.report, seconds=elapsed))
        table.add_row(
            [ordering, run.report.f_measure, run.report.coverage, run.report.gini, round(elapsed, 3)]
        )
    return rows, table
