"""Figure 6: accuracy versus coverage versus novelty across top-N recommenders.

Section V-B compares GANC against standard top-N algorithms rather than only
against re-rankers of a rating-prediction model.  The accuracy recommender is
chosen per dataset density: Pop on MT-200K (very sparse), PSVD100 elsewhere.
Each algorithm contributes one point per dataset in the F-measure/Coverage and
F-measure/LTAccuracy planes; the paper's arrows go from the bare accuracy
recommender to GANC(ARec, θG, Dyn) to visualize the coverage gained for the
accuracy given up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.evaluation.evaluator import Evaluator
from repro.experiments.datasets import EXPERIMENT_DATASETS, load_experiment_split
from repro.experiments.runner import ExperimentTable, build_accuracy_recommender
from repro.metrics.report import MetricReport
from repro.pipeline import Pipeline, ganc_spec
from repro.preferences.generalized import GeneralizedPreference
from repro.rerankers.registry import make_reranker
from repro.utils.rng import SeedLike

#: Standard top-N algorithms Figure 6 includes alongside the GANC variants.
FIGURE6_BASELINES = ("rand", "pop", "rsvd", "cofir100", "psvd10", "psvd100")


@dataclass(frozen=True)
class Figure6Point:
    """One algorithm's point in the accuracy/coverage/novelty planes."""

    dataset: str
    algorithm: str
    report: MetricReport

    @property
    def f_measure(self) -> float:
        """Accuracy axis value."""
        return self.report.f_measure

    @property
    def coverage(self) -> float:
        """Coverage axis value."""
        return self.report.coverage

    @property
    def lt_accuracy(self) -> float:
        """Novelty axis value."""
        return self.report.lt_accuracy


def accuracy_recommender_for(dataset_key: str) -> str:
    """The paper's per-dataset ARec choice: Pop on MT-200K, PSVD100 otherwise."""
    return "pop" if dataset_key == "mt200k" else "psvd100"


def run_figure6_for_dataset(
    dataset_key: str,
    *,
    n: int = 5,
    scale: float = 1.0,
    sample_size: int = 500,
    seed: SeedLike = 0,
    baselines: Sequence[str] = FIGURE6_BASELINES,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> list[Figure6Point]:
    """Evaluate every Figure 6 algorithm on one dataset."""
    spec = EXPERIMENT_DATASETS[dataset_key]
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    evaluator = Evaluator(split, n=n, block_size=block_size, n_jobs=n_jobs)
    points: list[Figure6Point] = []

    # Standard top-N baselines.
    for name in baselines:
        model = build_accuracy_recommender(name, seed=seed, scale_hint=scale)
        run = evaluator.evaluate_recommender(model, algorithm=name)
        points.append(Figure6Point(spec.title, name, run.report))

    # The GANC/PRA family shares the density-appropriate accuracy recommender.
    arec_name = accuracy_recommender_for(dataset_key)
    arec = build_accuracy_recommender(arec_name, seed=seed, scale_hint=scale)
    arec.fit(split.train)

    pra = make_reranker("pra", base=arec, exchangeable_size=10, max_steps=20, seed=seed)
    pra.fit(split.train)
    run = evaluator.evaluate_recommendations(
        pra.recommend_all(n), algorithm=f"PRA({arec_name}, 10)"
    )
    points.append(Figure6Point(spec.title, f"PRA({arec_name}, 10)", run.report))

    theta = GeneralizedPreference().estimate(split.train)
    for coverage_label, coverage_name in (("Dyn", "dyn"), ("Stat", "stat"), ("Rand", "rand")):
        pipeline_spec = ganc_spec(
            dataset=dataset_key, arec=arec_name, theta="thetaG",
            coverage=coverage_name, n=n, sample_size=sample_size,
            optimizer="auto", scale=scale, seed=seed, block_size=block_size,
            n_jobs=n_jobs,
        )
        pipeline = Pipeline(pipeline_spec, recommender=arec, preference=theta).fit(split)
        label = f"GANC({arec_name}, thetaG, {coverage_label})"
        run = evaluator.evaluate_recommendations(pipeline.recommend_all(), algorithm=label)
        points.append(Figure6Point(spec.title, label, run.report))
    return points


def run_figure6(
    *,
    datasets: Sequence[str] | None = None,
    n: int = 5,
    scale: float = 1.0,
    sample_size: int = 500,
    seed: SeedLike = 0,
    baselines: Sequence[str] = FIGURE6_BASELINES,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[Figure6Point], ExperimentTable]:
    """Regenerate the Figure 6 scatter data across datasets."""
    keys = list(datasets) if datasets is not None else list(EXPERIMENT_DATASETS)
    points: list[Figure6Point] = []
    table = ExperimentTable(
        title="Figure 6: accuracy vs coverage vs novelty (top-5)",
        headers=["Dataset", "Algorithm", "F-measure@5", "Coverage@5", "LTAccuracy@5"],
    )
    for key in keys:
        dataset_points = run_figure6_for_dataset(
            key, n=n, scale=scale, sample_size=sample_size, seed=seed,
            baselines=baselines, block_size=block_size, n_jobs=n_jobs,
        )
        points.extend(dataset_points)
        for point in dataset_points:
            table.add_row(
                [point.dataset, point.algorithm, point.f_measure, point.coverage, point.lt_accuracy]
            )
    return points, table
