"""Pieces shared by the benchmark's orchestrator and its worker processes."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: Thread-pool sizes fixed in every process the benchmark starts.  One
#: thread per pool: wall time on a shared 2-CPU host varies less.
POOL_THREADS = 1
#: String hashing is fixed too, so that every process iterates sets of
#: strings, and allocates along them, in the same order.
HASH_SEED = 0
PINNED_ENV = {
    **{
        name: str(POOL_THREADS)
        for name in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        )
    },
    "PYTHONHASHSEED": str(HASH_SEED),
}

#: Top-N size every artifact is compiled for, and the second size requested.
N = 10
SECOND_N = 5
#: OSLG sample size of the GANC workloads.
SAMPLE_SIZE = 500


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV`; call before numpy is imported."""
    os.environ.update(PINNED_ENV)


def spec_config(model: str, store: str) -> dict[str, Any]:
    """The pipeline spec of a workload; program knobs stay at their defaults.

    ``model`` is ``"ganc"`` for GANC(ItemKNN, θG, Dyn) with OSLG or
    ``"knn"`` for the bare ItemKNN recommender.
    """
    config: dict[str, Any] = {
        "dataset": {"key": "bench", "path": store},
        "recommender": {"name": "itemknn", "params": {}},
        "evaluation": {"n": N},
    }
    if model == "ganc":
        config["preference"] = {"name": "thetag", "params": {}}
        config["coverage"] = {"name": "dyn", "params": {}}
        config["ganc"] = {"optimizer": "oslg", "sample_size": SAMPLE_SIZE}
    return config


def artifact_items(directory: str | Path) -> Any:
    """The stored item rows of an artifact, concatenated over its shards."""
    import numpy as np

    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    blocks = [np.load(directory / entry["items"]) for entry in manifest["shards"]]
    return np.concatenate(blocks) if blocks else np.empty((0, int(manifest["n"])), dtype=np.int64)


def quality(pipeline: Any, items: Any) -> dict[str, float]:
    """Table III precision, long-tail accuracy and Gini of stored rows."""
    report = pipeline.evaluate(
        {user: row[row >= 0] for user, row in enumerate(items)}
    ).report
    return {
        "precision_at_n": float(report.precision),
        "lt_accuracy_at_n": float(report.lt_accuracy),
        "gini_at_n": float(report.gini),
    }
