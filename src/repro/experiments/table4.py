"""Table IV: re-ranking comparison on top of the RSVD rating-prediction model.

For every dataset the paper compares the RSVD base ranking against the
re-ranking baselines (5D with and without A/RR, RBT with the Pop and Avg
criteria, PRA with exchangeable sets of 10 and 20) and two GANC variants
(θT and θG preferences with the Dyn coverage recommender).  Each algorithm is
scored on F-measure@5, Stratified Recall@5, LTAccuracy@5, Coverage@5 and
Gini@5, every metric is ranked across algorithms, and the final column is the
average rank (lower is better) — the paper's headline is that the GANC
variants obtain the lowest average rank on every dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data.split import TrainTestSplit
from repro.evaluation.evaluator import Evaluator
from repro.experiments.datasets import EXPERIMENT_DATASETS, load_experiment_split
from repro.experiments.runner import (
    ExperimentTable,
    TABLE4_METRICS,
    average_ranks,
    build_accuracy_recommender,
    metric_ranks,
)
from repro.metrics.report import MetricReport
from repro.pipeline import Pipeline, ganc_spec
from repro.recommenders.base import Recommender
from repro.rerankers.registry import make_reranker
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class Table4Row:
    """One algorithm's metrics, per-metric ranks and average rank."""

    dataset: str
    algorithm: str
    report: MetricReport
    ranks: Mapping[str, int]
    average_rank: float


AlgorithmBuilder = Callable[[Recommender, TrainTestSplit, int, SeedLike], Mapping[int, np.ndarray]]


def _base_ranking(base: Recommender, split: TrainTestSplit, n: int, seed: SeedLike):
    del split, seed
    return base.recommend_all(n).as_dict()


def _five_d(base, split, n, seed, *, accuracy_filtering=False, rank_by_rankings=False):
    del seed
    reranker = make_reranker(
        "5d",
        base=base,
        accuracy_filtering=accuracy_filtering,
        rank_by_rankings=rank_by_rankings,
    )
    reranker.fit(split.train)
    return reranker.recommend_all(n).as_dict()


def _rbt(base, split, n, seed, *, criterion: str, popularity_floor: int):
    del seed
    reranker = make_reranker(
        "rbt",
        base=base,
        criterion=criterion,
        ranking_threshold=4.5,
        max_rating=5.0,
        popularity_floor=popularity_floor,
    )
    reranker.fit(split.train)
    return reranker.recommend_all(n).as_dict()


def _pra(base, split, n, seed, *, exchangeable_size: int):
    reranker = make_reranker(
        "pra", base=base, exchangeable_size=exchangeable_size, max_steps=20, seed=seed
    )
    reranker.fit(split.train)
    return reranker.recommend_all(n).as_dict()


def _ganc(
    base, split, n, seed, *,
    preference: str, sample_size: int,
    dataset_key: str = "ml100k", scale: float = 1.0, block_size: int | None = None,
    n_jobs: int = 1,
):
    spec = ganc_spec(
        dataset=dataset_key, arec="rsvd", theta=preference, coverage="dyn",
        n=n, sample_size=sample_size, optimizer="oslg", scale=scale,
        seed=seed, block_size=block_size, n_jobs=n_jobs,
    )
    pipeline = Pipeline(spec, recommender=base).fit(split)
    return pipeline.recommend_all().as_dict()


def table4_algorithms(
    *,
    popularity_floor: int = 1,
    sample_size: int = 500,
    dataset_key: str = "ml100k",
    scale: float = 1.0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> dict[str, AlgorithmBuilder]:
    """The nine Table IV algorithms, keyed by the paper's labels."""
    ganc_kwargs = {
        "dataset_key": dataset_key, "scale": scale, "block_size": block_size,
        "n_jobs": n_jobs,
    }
    return {
        "RSVD": _base_ranking,
        "5D(RSVD)": lambda b, s, n, seed: _five_d(b, s, n, seed),
        "5D(RSVD, A, RR)": lambda b, s, n, seed: _five_d(
            b, s, n, seed, accuracy_filtering=True, rank_by_rankings=True
        ),
        "RBT(RSVD, Pop)": lambda b, s, n, seed: _rbt(
            b, s, n, seed, criterion="pop", popularity_floor=popularity_floor
        ),
        "RBT(RSVD, Avg)": lambda b, s, n, seed: _rbt(
            b, s, n, seed, criterion="avg", popularity_floor=popularity_floor
        ),
        "PRA(RSVD, 10)": lambda b, s, n, seed: _pra(b, s, n, seed, exchangeable_size=10),
        "PRA(RSVD, 20)": lambda b, s, n, seed: _pra(b, s, n, seed, exchangeable_size=20),
        "GANC(RSVD, thetaT, Dyn)": lambda b, s, n, seed: _ganc(
            b, s, n, seed, preference="thetaT", sample_size=sample_size, **ganc_kwargs
        ),
        "GANC(RSVD, thetaG, Dyn)": lambda b, s, n, seed: _ganc(
            b, s, n, seed, preference="thetaG", sample_size=sample_size, **ganc_kwargs
        ),
    }


def run_table4_for_dataset(
    dataset_key: str,
    *,
    n: int = 5,
    scale: float = 1.0,
    sample_size: int = 500,
    seed: SeedLike = 0,
    algorithms: Sequence[str] | None = None,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> list[Table4Row]:
    """Run the Table IV comparison on one dataset and return ranked rows."""
    spec = EXPERIMENT_DATASETS[dataset_key]
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    evaluator = Evaluator(split, n=n, block_size=block_size, n_jobs=n_jobs)

    base = build_accuracy_recommender("rsvd", seed=seed, scale_hint=scale)
    base.fit(split.train)

    # The paper uses TH = 1 except on the two largest datasets where TH = 0.
    popularity_floor = 0 if dataset_key in ("ml10m", "netflix") else 1
    builders = table4_algorithms(
        popularity_floor=popularity_floor, sample_size=sample_size,
        dataset_key=dataset_key, scale=scale, block_size=block_size,
        n_jobs=n_jobs,
    )
    if algorithms is not None:
        builders = {name: builders[name] for name in algorithms}

    reports: list[MetricReport] = []
    names: list[str] = []
    for name, builder in builders.items():
        recommendations = builder(base, split, n, seed)
        run = evaluator.evaluate_recommendations(recommendations, algorithm=name)
        reports.append(run.report)
        names.append(name)

    ranks_per_metric = {
        metric: metric_ranks(reports, metric, higher_is_better=higher)
        for metric, higher in TABLE4_METRICS.items()
    }
    averages = average_ranks(reports)

    rows: list[Table4Row] = []
    for idx, (name, report) in enumerate(zip(names, reports)):
        rows.append(
            Table4Row(
                dataset=spec.title,
                algorithm=name,
                report=report,
                ranks={metric: ranks[idx] for metric, ranks in ranks_per_metric.items()},
                average_rank=averages[idx],
            )
        )
    return rows


def run_table4(
    *,
    datasets: Sequence[str] | None = None,
    n: int = 5,
    scale: float = 1.0,
    sample_size: int = 500,
    seed: SeedLike = 0,
    algorithms: Sequence[str] | None = None,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[Table4Row], ExperimentTable]:
    """Regenerate Table IV across datasets."""
    keys = list(datasets) if datasets is not None else list(EXPERIMENT_DATASETS)
    all_rows: list[Table4Row] = []
    table = ExperimentTable(
        title="Table IV: top-5 re-ranking comparison on RSVD",
        headers=["Dataset", "Algorithm", "F@5", "S@5", "L@5", "C@5", "G@5", "AvgRank"],
    )
    for key in keys:
        rows = run_table4_for_dataset(
            key, n=n, scale=scale, sample_size=sample_size, seed=seed,
            algorithms=algorithms, block_size=block_size, n_jobs=n_jobs,
        )
        all_rows.extend(rows)
        for row in rows:
            table.add_row(
                [
                    row.dataset,
                    row.algorithm,
                    row.report.f_measure,
                    row.report.stratified_recall,
                    row.report.lt_accuracy,
                    row.report.coverage,
                    row.report.gini,
                    round(row.average_rank, 2),
                ]
            )
    return all_rows, table


def best_average_rank_algorithm(rows: Sequence[Table4Row], dataset_title: str) -> str:
    """Name of the algorithm with the lowest average rank on one dataset."""
    candidates = [row for row in rows if row.dataset == dataset_title]
    if not candidates:
        raise ValueError(f"no Table IV rows for dataset {dataset_title!r}")
    return min(candidates, key=lambda row: row.average_rank).algorithm
