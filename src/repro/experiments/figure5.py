"""Figure 5: interplay of the preference model, the accuracy recommender and N.

The paper evaluates GANC(ARec, θ, Dyn) on ML-1M with a fixed sample size
(S = 500) while varying

* the accuracy recommender ARec ∈ {RSVD, PSVD100, PSVD10, Pop},
* the preference model θ ∈ {θR, θC, θN, θT, θG} (plus ARec alone as the
  reference), and
* the top-N size N ∈ {5, 10, 15, 20},

and reports F-measure, Stratified Recall, LTAccuracy, Coverage and Gini.  The
headline observations this harness lets you check: the bare ARec has the best
F-measure but the worst coverage/gini, and the informed preference models
(θN, θT, θG) dominate the uninformed ones (θR, θC) on accuracy while retaining
the coverage gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.evaluation.evaluator import Evaluator
from repro.experiments.datasets import load_experiment_split
from repro.experiments.runner import ExperimentTable, build_accuracy_recommender
from repro.metrics.report import MetricReport
from repro.pipeline import Pipeline, ganc_spec
from repro.preferences.base import PreferenceResult
from repro.preferences.generalized import GeneralizedPreference
from repro.preferences.simple import (
    ConstantPreference,
    NormalizedLongTailPreference,
    RandomPreference,
    TfidfPreference,
)
from repro.utils.rng import SeedLike

#: Preference models Figure 5 compares, in display order.
FIGURE5_THETAS = ("thetaN", "thetaT", "thetaG", "thetaR", "thetaC")
#: Accuracy recommenders of the four panel rows.
FIGURE5_ARECS = ("rsvd", "psvd100", "psvd10", "pop")


@dataclass(frozen=True)
class Figure5Cell:
    """Metrics of one (ARec, θ, N) configuration."""

    accuracy_recommender: str
    preference: str
    n: int
    report: MetricReport


def _estimate_thetas(train, seed: SeedLike) -> dict[str, PreferenceResult]:
    return {
        "thetaN": NormalizedLongTailPreference().estimate(train),
        "thetaT": TfidfPreference().estimate(train),
        "thetaG": GeneralizedPreference().estimate(train),
        "thetaR": RandomPreference(seed=seed).estimate(train),
        "thetaC": ConstantPreference(0.5).estimate(train),
    }


def run_figure5(
    *,
    dataset_key: str = "ml1m",
    accuracy_recommenders: Sequence[str] = FIGURE5_ARECS,
    preference_models: Sequence[str] = FIGURE5_THETAS,
    n_values: Sequence[int] = (5, 10, 15, 20),
    sample_size: int = 500,
    scale: float = 1.0,
    seed: SeedLike = 0,
    block_size: int | None = None,
    n_jobs: int = 1,
) -> tuple[list[Figure5Cell], ExperimentTable]:
    """Regenerate the Figure 5 panels (as rows of a long-format table)."""
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    thetas = _estimate_thetas(split.train, seed)
    n_users = split.train.n_users
    sample_size = max(1, min(sample_size, n_users))

    cells: list[Figure5Cell] = []
    table = ExperimentTable(
        title=f"Figure 5: GANC(ARec, theta, Dyn) on {dataset_key} (S={sample_size})",
        headers=[
            "ARec", "theta", "N",
            "F-measure", "StratRecall", "LTAccuracy", "Coverage", "Gini",
        ],
    )

    for arec_name in accuracy_recommenders:
        # One fitted accuracy recommender (and one estimated θ vector per
        # model) is shared across every spec that references it.
        arec = build_accuracy_recommender(arec_name, seed=seed, scale_hint=scale)
        arec.fit(split.train)
        for n in n_values:
            evaluator = Evaluator(
                split, n=int(n), block_size=block_size, n_jobs=n_jobs
            )
            # Reference row: the accuracy recommender on its own.
            reference = evaluator.evaluate_recommender(arec, algorithm=arec_name, fit=False)
            cells.append(
                Figure5Cell(arec_name, "ARec", int(n), reference.report)
            )
            table.add_row(
                [
                    arec_name, "ARec", n,
                    reference.report.f_measure, reference.report.stratified_recall,
                    reference.report.lt_accuracy, reference.report.coverage,
                    reference.report.gini,
                ]
            )
            for theta_name in preference_models:
                spec = ganc_spec(
                    dataset=dataset_key, arec=arec_name, theta=theta_name,
                    coverage="dyn", n=int(n), sample_size=sample_size,
                    optimizer="oslg", scale=scale, seed=seed, block_size=block_size,
                    n_jobs=n_jobs,
                )
                pipeline = Pipeline(
                    spec, recommender=arec, preference=thetas[theta_name]
                ).fit(split)
                run = evaluator.evaluate_recommendations(
                    pipeline.recommend_all(),
                    algorithm=f"GANC({arec_name}, {theta_name}, Dyn)",
                )
                cells.append(Figure5Cell(arec_name, theta_name, int(n), run.report))
                table.add_row(
                    [
                        arec_name, theta_name, n,
                        run.report.f_measure, run.report.stratified_recall,
                        run.report.lt_accuracy, run.report.coverage, run.report.gini,
                    ]
                )
    return cells, table


def informed_vs_uninformed_gap(cells: Sequence[Figure5Cell], *, metric: str = "f_measure") -> float:
    """Average metric gap between informed (θN/θT/θG) and uninformed (θR/θC) variants.

    Positive values mean the informed preference estimates outperform the
    random/constant controls, which is the paper's central Figure 5 claim.
    """
    informed = [c.report.metric(metric) for c in cells if c.preference in ("thetaN", "thetaT", "thetaG")]
    uninformed = [c.report.metric(metric) for c in cells if c.preference in ("thetaR", "thetaC")]
    if not informed or not uninformed:
        return 0.0
    return float(np.mean(informed) - np.mean(uninformed))
