"""Figures 7-8 (appendix): effect of the test ranking protocol on the metrics.

The appendix study evaluates a panel of standard top-N algorithms under the
two ranking protocols (all unrated items vs rated test-items) on ML-100K and
ML-1M and shows that the rated-test-items protocol inflates accuracy for every
algorithm (including random suggestion), deflates LTAccuracy, and favours
models optimized on observed feedback (RSVD/RSVDN).  This module recomputes
F-measure, Precision, Coverage and LTAccuracy for both protocols so those
relationships can be checked on the surrogate data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.evaluation.evaluator import Evaluator
from repro.evaluation.protocols import AllUnratedItemsProtocol, RatedTestItemsProtocol
from repro.experiments.datasets import EXPERIMENT_DATASETS, load_experiment_split
from repro.experiments.runner import ExperimentTable, build_accuracy_recommender
from repro.metrics.report import MetricReport
from repro.utils.rng import SeedLike

#: The algorithm panel of the appendix study (a representative subset of the
#: sixteen configurations the paper plots).
FIGURE7_8_ALGORITHMS = (
    "rand",
    "pop",
    "rsvd",
    "rsvdn",
    "cofir100",
    "psvd10",
    "psvd40",
    "psvd100",
)


@dataclass(frozen=True)
class ProtocolPoint:
    """One (dataset, algorithm, protocol) evaluation."""

    dataset: str
    algorithm: str
    protocol: str
    report: MetricReport


def run_protocol_comparison(
    dataset_key: str,
    *,
    algorithms: Sequence[str] = FIGURE7_8_ALGORITHMS,
    n: int = 5,
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> list[ProtocolPoint]:
    """Evaluate the algorithm panel under both protocols on one dataset."""
    spec = EXPERIMENT_DATASETS[dataset_key]
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    protocols = {
        "all_unrated_items": AllUnratedItemsProtocol(),
        "rated_test_items": RatedTestItemsProtocol(),
    }
    points: list[ProtocolPoint] = []
    for name in algorithms:
        model = build_accuracy_recommender(name, seed=seed, scale_hint=scale)
        model.fit(split.train)
        for protocol_name, protocol in protocols.items():
            evaluator = Evaluator(
                split, n=n, protocol=protocol, block_size=block_size,
                n_jobs=n_jobs,
            )
            run = evaluator.evaluate_recommender(model, algorithm=name, fit=False)
            points.append(
                ProtocolPoint(
                    dataset=spec.title,
                    algorithm=name,
                    protocol=protocol_name,
                    report=run.report,
                )
            )
    return points


def run_figure7_8(
    *,
    datasets: Sequence[str] = ("ml100k", "ml1m"),
    algorithms: Sequence[str] = FIGURE7_8_ALGORITHMS,
    n: int = 5,
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[ProtocolPoint], ExperimentTable]:
    """Regenerate the Figures 7-8 protocol comparison."""
    points: list[ProtocolPoint] = []
    table = ExperimentTable(
        title="Figures 7-8: ranking protocol comparison (top-5)",
        headers=[
            "Dataset", "Algorithm", "Protocol",
            "Precision@5", "F-measure@5", "Coverage@5", "LTAccuracy@5",
        ],
    )
    for key in datasets:
        dataset_points = run_protocol_comparison(
            key, algorithms=algorithms, n=n, scale=scale, seed=seed,
            block_size=block_size, n_jobs=n_jobs,
        )
        points.extend(dataset_points)
        for point in dataset_points:
            table.add_row(
                [
                    point.dataset,
                    point.algorithm,
                    point.protocol,
                    point.report.precision,
                    point.report.f_measure,
                    point.report.coverage,
                    point.report.lt_accuracy,
                ]
            )
    return points, table


def protocol_accuracy_inflation(points: Sequence[ProtocolPoint], *, metric: str = "precision") -> float:
    """Average metric difference (rated-test-items minus all-unrated-items).

    A positive value reproduces the appendix's key finding: the rated
    test-items protocol systematically inflates measured accuracy.
    """
    by_key: dict[tuple[str, str], dict[str, float]] = {}
    for point in points:
        by_key.setdefault((point.dataset, point.algorithm), {})[point.protocol] = (
            point.report.metric(metric)
        )
    differences = [
        values["rated_test_items"] - values["all_unrated_items"]
        for values in by_key.values()
        if len(values) == 2
    ]
    return float(sum(differences) / len(differences)) if differences else 0.0
