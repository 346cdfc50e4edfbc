"""Table V (appendix): RSVD / RSVDN hyper-parameter selection.

The paper cross-validates the LIBMF models over the number of latent factors
``g``, the L2 regularization coefficient ``λ`` and the learning rate ``η`` and
reports, per dataset, the configuration with the best RMSE.  This module runs
the same style of grid search (with a validation split carved out of the train
partition) and reports both the full grid and the selected configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.split import RatioSplitter
from repro.experiments.datasets import EXPERIMENT_DATASETS, load_experiment_split
from repro.experiments.runner import ExperimentTable
from repro.recommenders.registry import make_recommender
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class GridPoint:
    """RMSE of one (model, g, λ, η) configuration on the validation split."""

    dataset: str
    model: str
    n_factors: int
    reg: float
    learning_rate: float
    validation_rmse: float


def run_table5_for_dataset(
    dataset_key: str,
    *,
    factors: Sequence[int] = (8, 20, 40),
    regs: Sequence[float] = (0.01, 0.05, 0.1),
    learning_rates: Sequence[float] = (0.01, 0.03),
    n_epochs: int = 15,
    include_non_negative: bool = True,
    scale: float = 1.0,
    seed: SeedLike = 0,
) -> list[GridPoint]:
    """Grid-search RSVD (and optionally RSVDN) on one dataset."""
    spec = EXPERIMENT_DATASETS[dataset_key]
    _, split = load_experiment_split(dataset_key, scale=scale, seed=seed)
    inner = RatioSplitter(0.8, seed=seed).split(split.train)

    models = ["RSVD"] + (["RSVDN"] if include_non_negative else [])
    points: list[GridPoint] = []
    for model_name in models:
        for g in factors:
            for reg in regs:
                for lr in learning_rates:
                    model = make_recommender(
                        "rsvdn" if model_name == "RSVDN" else "rsvd",
                        n_factors=g,
                        n_epochs=n_epochs,
                        learning_rate=lr,
                        reg=reg,
                        seed=seed,
                    )
                    model.fit(inner.train)
                    points.append(
                        GridPoint(
                            dataset=spec.title,
                            model=model_name,
                            n_factors=g,
                            reg=reg,
                            learning_rate=lr,
                            validation_rmse=model.rmse(inner.test),
                        )
                    )
    return points


def best_configuration(points: Sequence[GridPoint], model: str) -> GridPoint:
    """The grid point with the lowest validation RMSE for ``model``."""
    candidates = [p for p in points if p.model == model]
    if not candidates:
        raise ValueError(f"no grid points for model {model!r}")
    return min(candidates, key=lambda p: p.validation_rmse)


def run_table5(
    *,
    datasets: Sequence[str] | None = None,
    factors: Sequence[int] = (8, 20, 40),
    regs: Sequence[float] = (0.01, 0.05, 0.1),
    learning_rates: Sequence[float] = (0.01, 0.03),
    scale: float = 1.0,
    seed: SeedLike = 0,
) -> tuple[list[GridPoint], ExperimentTable]:
    """Regenerate Table V: the selected configuration per dataset and model."""
    keys = list(datasets) if datasets is not None else list(EXPERIMENT_DATASETS)
    all_points: list[GridPoint] = []
    table = ExperimentTable(
        title="Table V: RSVD / RSVDN hyper-parameter selection",
        headers=["Dataset", "Model", "eta", "lambda", "g", "RMSE"],
    )
    for key in keys:
        points = run_table5_for_dataset(
            key,
            factors=factors,
            regs=regs,
            learning_rates=learning_rates,
            scale=scale,
            seed=seed,
        )
        all_points.extend(points)
        for model_name in ("RSVD", "RSVDN"):
            best = best_configuration(points, model_name)
            table.add_row(
                [
                    best.dataset,
                    model_name,
                    best.learning_rate,
                    best.reg,
                    best.n_factors,
                    round(best.validation_rmse, 4),
                ]
            )
    return all_points, table
