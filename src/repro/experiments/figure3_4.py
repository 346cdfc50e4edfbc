"""Figures 3 and 4: effect of the OSLG sample size on accuracy and coverage.

The paper sweeps the sample size ``S`` of GANC(ARec, θG, Dyn) on ML-1M
(Figure 3) and MT-200K (Figure 4) for four accuracy recommenders and plots
F-measure@5 against Coverage@5.  The qualitative finding: increasing S raises
coverage and (for most accuracy recommenders) slightly lowers F-measure, which
is why the paper fixes S = 500 for the remaining experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.evaluation.evaluator import Evaluator
from repro.experiments.datasets import load_experiment_split
from repro.experiments.runner import ExperimentTable, build_accuracy_recommender
from repro.pipeline import Pipeline, ganc_spec
from repro.preferences.generalized import GeneralizedPreference
from repro.utils.rng import SeedLike

#: Accuracy recommenders the paper sweeps in Figures 3-4, in display order.
FIGURE3_ARECS = ("psvd100", "psvd10", "pop", "rsvd")


@dataclass(frozen=True)
class SampleSizePoint:
    """One point of the sweep: a sample size and its metric values."""

    accuracy_recommender: str
    sample_size: int
    f_measure: float
    coverage: float


def run_sample_size_sweep(
    dataset_key: str,
    *,
    sample_sizes: Sequence[int] = (100, 300, 500, 700, 900),
    accuracy_recommenders: Sequence[str] = FIGURE3_ARECS,
    n: int = 5,
    bandwidth: float | str = "silverman",
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[SampleSizePoint], ExperimentTable]:
    """Sweep the OSLG sample size for GANC(ARec, θG, Dyn) on one dataset.

    The sample sizes are clipped to the number of users of the (possibly
    scaled-down) surrogate dataset, preserving the sweep's shape.
    """
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    evaluator = Evaluator(split, n=n, block_size=block_size, n_jobs=n_jobs)
    theta = GeneralizedPreference().estimate(split.train)

    points: list[SampleSizePoint] = []
    table = ExperimentTable(
        title=f"Figures 3/4: OSLG sample size sweep on {dataset_key}",
        headers=["ARec", "S", "F-measure@N", "Coverage@N"],
    )
    n_users = split.train.n_users
    for arec_name in accuracy_recommenders:
        arec = build_accuracy_recommender(arec_name, seed=seed, scale_hint=scale)
        arec.fit(split.train)
        for requested in sample_sizes:
            sample_size = max(1, min(int(requested), n_users))
            spec = ganc_spec(
                dataset=dataset_key, arec=arec_name, theta="thetaG", coverage="dyn",
                n=n, sample_size=sample_size, bandwidth=bandwidth, optimizer="oslg",
                scale=scale, seed=seed, block_size=block_size, n_jobs=n_jobs,
            )
            pipeline = Pipeline(spec, recommender=arec, preference=theta).fit(split)
            run = evaluator.evaluate_recommendations(
                pipeline.recommend_all(), algorithm=f"GANC({arec_name}, thetaG, Dyn) S={requested}"
            )
            point = SampleSizePoint(
                accuracy_recommender=arec_name,
                sample_size=int(requested),
                f_measure=run.report.f_measure,
                coverage=run.report.coverage,
            )
            points.append(point)
            table.add_row([arec_name, requested, point.f_measure, point.coverage])
    return points, table


def run_figure3(
    *,
    sample_sizes: Sequence[int] = (100, 300, 500, 700, 900),
    accuracy_recommenders: Sequence[str] = FIGURE3_ARECS,
    bandwidth: float | str = "silverman",
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[SampleSizePoint], ExperimentTable]:
    """Figure 3: the sweep on the ML-1M surrogate."""
    return run_sample_size_sweep(
        "ml1m",
        sample_sizes=sample_sizes,
        accuracy_recommenders=accuracy_recommenders,
        bandwidth=bandwidth,
        scale=scale,
        seed=seed,
        block_size=block_size,
        n_jobs=n_jobs,
    )


def run_figure4(
    *,
    sample_sizes: Sequence[int] = (100, 300, 500, 700, 900),
    accuracy_recommenders: Sequence[str] = FIGURE3_ARECS,
    bandwidth: float | str = "silverman",
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[SampleSizePoint], ExperimentTable]:
    """Figure 4: the sweep on the MT-200K surrogate."""
    return run_sample_size_sweep(
        "mt200k",
        sample_sizes=sample_sizes,
        accuracy_recommenders=accuracy_recommenders,
        bandwidth=bandwidth,
        scale=scale,
        seed=seed,
        block_size=block_size,
        n_jobs=n_jobs,
    )
