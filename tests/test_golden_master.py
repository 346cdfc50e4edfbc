"""Golden-master regression tests: committed outputs future PRs must not drift.

Each fixture under ``tests/golden/`` is the byte-exact output of one fixed,
fast experiment configuration:

* ``table4_ml100k.json`` — the Table IV re-ranking comparison rows
  (all nine algorithms, metrics + ranks) on the ML-100K surrogate,
* ``figure6_ml100k.json`` — the Figure 6 accuracy/coverage/novelty points,
* ``figure7_8_ml100k.json`` — the Figures 7/8 protocol comparison (both
  ranking protocols) for the default panel plus ItemKNN and UserKNN,
* ``ml100k_tiny_metrics.json`` / ``ml100k_tiny_top5.csv`` — the metric
  report and full top-5 CSV of the ``examples/specs/ml100k_tiny.json``
  pipeline spec (the same spec the CI smoke jobs execute),
* ``itemknn_ganc_tiny.json`` — default ``ItemKNN()`` score rows and the
  GANC(ItemKNN, θG, Dyn) OSLG top-10 rows on a small split,
* ``artifact_tiny.json`` — SHA-256 of every compiled item and score shard
  of four small artifacts (GANC and bare recommenders).

The tests regenerate each output and byte-compare it against the committed
fixture, so any change to scoring, tie-breaking, sampling, ranking or
serialization — however subtle — fails loudly.  After an *intentional*
behaviour change, refresh the fixtures with::

    PYTHONPATH=src python tests/test_golden_master.py --regenerate

and commit the diff alongside the change that caused it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

from repro.data.io import save_recommendations_csv
from repro.experiments.figure6 import run_figure6_for_dataset
from repro.experiments.figure7_8 import FIGURE7_8_ALGORITHMS, run_protocol_comparison
from repro.experiments.table4 import run_table4_for_dataset
from repro.pipeline import Pipeline

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TINY_SPEC = Path(__file__).resolve().parents[1] / "examples" / "specs" / "ml100k_tiny.json"

#: One fixed configuration per fixture; changing these invalidates the goldens.
SCALE = 0.15
SAMPLE_SIZE = 30
SEED = 0


def _as_json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def generate_table4() -> bytes:
    """Table IV rows on ML-100K: metrics, per-metric ranks, average rank."""
    rows = run_table4_for_dataset(
        "ml100k", scale=SCALE, sample_size=SAMPLE_SIZE, seed=SEED
    )
    return _as_json_bytes(
        [
            {
                "dataset": row.dataset,
                "algorithm": row.algorithm,
                "metrics": row.report.as_dict(),
                "ranks": dict(row.ranks),
                "average_rank": row.average_rank,
            }
            for row in rows
        ]
    )


def generate_figure6() -> bytes:
    """Figure 6 points on ML-100K: one metric dict per algorithm."""
    points = run_figure6_for_dataset(
        "ml100k", scale=SCALE, sample_size=SAMPLE_SIZE, seed=SEED
    )
    return _as_json_bytes(
        [
            {
                "dataset": point.dataset,
                "algorithm": point.algorithm,
                "metrics": point.report.as_dict(),
            }
            for point in points
        ]
    )


def generate_figure7_8() -> bytes:
    """Figures 7/8 on ML-100K: metrics per (algorithm, ranking protocol)."""
    points = run_protocol_comparison(
        "ml100k",
        algorithms=FIGURE7_8_ALGORITHMS + ("itemknn", "userknn"),
        scale=SCALE,
        seed=SEED,
    )
    return _as_json_bytes(
        [
            {
                "dataset": point.dataset,
                "algorithm": point.algorithm,
                "protocol": point.protocol,
                "metrics": point.report.as_dict(),
            }
            for point in points
        ]
    )


def _tiny_pipeline_outputs() -> tuple[bytes, bytes]:
    pipeline = Pipeline.from_json_file(TINY_SPEC).fit()
    recommendations = pipeline.recommend_all()
    metrics = pipeline.evaluate(recommendations).report.as_dict()
    metrics_bytes = _as_json_bytes({"algorithm": pipeline.algorithm, "metrics": metrics})
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = save_recommendations_csv(recommendations.as_dict(), Path(tmp) / "top5.csv")
        csv_bytes = csv_path.read_bytes()
    return metrics_bytes, csv_bytes


def generate_tiny_metrics() -> bytes:
    """Metric report of the ml100k_tiny pipeline spec."""
    return _tiny_pipeline_outputs()[0]


def generate_tiny_top5() -> bytes:
    """Full top-5 CSV of the ml100k_tiny pipeline spec."""
    return _tiny_pipeline_outputs()[1]


def generate_oslg_tiny() -> bytes:
    """One fixed tiny OSLG run: collection, sample, final coverage counts.

    Pins the whole Algorithm 1 surface — KDE sampling, the incremental
    sequential pass, delta-snapshot reconstruction and the blocked snapshot
    assignment phase — at a scale small enough to regenerate in well under a
    second.  Uses the Pop accuracy recommender, so no BLAS floats are
    involved beyond the environment-gated numpy line.
    """
    import numpy as np

    from repro.coverage.dynamic import DynamicCoverage
    from repro.data.split import RatioSplitter
    from repro.data.synthetic import make_dataset
    from repro.ganc.oslg import OSLGOptimizer
    from repro.preferences.generalized import GeneralizedPreference
    from repro.recommenders.popularity import MostPopular

    train = RatioSplitter(0.8, seed=SEED).split(
        make_dataset("ml100k", scale=0.1, seed=SEED)
    ).train
    model = MostPopular().fit(train)
    theta = GeneralizedPreference().estimate(train).theta
    optimizer = OSLGOptimizer(
        DynamicCoverage().fit(train), 5, sample_size=12, seed=SEED
    )
    result = optimizer.run(
        theta, lambda users: model.unit_scores_pair(users, 5), train.user_items_batch
    )
    final_counts = result.snapshot_log.counts_at(result.snapshot_log.n_steps - 1)
    return _as_json_bytes(
        {
            "n_users": int(train.n_users),
            "n_items": int(train.n_items),
            "sampled_users": result.sampled_users.tolist(),
            "top_n": result.top_n.items.tolist(),
            "final_snapshot_counts": final_counts.tolist(),
            "snapshot_totals": result.snapshots.sum(axis=1).tolist(),
        }
    )


def generate_sparse_knn_tiny() -> bytes:
    """One fixed tiny ItemKNN fit: the sparse neighbour graph.

    Pins the blocked gram scan — similarity values, CSR structure and the
    top-5 lists it serves — on a small synthetic split.  The scan is
    bit-identical to a dense-gram reference (asserted in
    ``tests/test_scale.py``), so this fixture also freezes the historical
    dense numbers in sparse form.
    """
    from repro.data.split import RatioSplitter
    from repro.data.synthetic import make_dataset
    from repro.recommenders.knn import ItemKNN

    train = RatioSplitter(0.8, seed=SEED).split(
        make_dataset("ml100k", scale=0.1, seed=SEED)
    ).train
    model = ItemKNN(10).fit(train)
    graph = model.similarity_
    users = train.users_with_ratings()[:20]
    return _as_json_bytes(
        {
            "n_items": int(train.n_items),
            "nnz": int(graph.nnz),
            "indptr": graph.indptr.tolist(),
            "indices": graph.indices.tolist(),
            "data": graph.data.tolist(),
            "top5": model.recommend_block(users, 5).tolist(),
        }
    )


def generate_itemknn_ganc_tiny() -> bytes:
    """``ItemKNN()`` defaults: raw score rows and GANC(ItemKNN, θG, Dyn) top-10.

    Pins :meth:`ItemKNN.predict_matrix` for 20 users and the OSLG top-10
    rows of every user with the default ItemKNN as GANC's accuracy
    recommender, on a small fixed split.  The fixture was generated by the
    dense-gram implementation that preceded the blocked scan, so it also
    proves the scan reproduces those numbers byte for byte.
    """
    from repro.pipeline import ComponentSpec, DatasetSpec, EvaluationSpec, GANCSpec, PipelineSpec

    spec = PipelineSpec(
        recommender=ComponentSpec("itemknn"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=SAMPLE_SIZE, optimizer="oslg"),
        dataset=DatasetSpec(key="ml100k", scale=0.1),
        evaluation=EvaluationSpec(n=10),
        seed=SEED,
    )
    pipeline = Pipeline(spec).fit()
    users = pipeline.split.train.users_with_ratings()[:20]
    return _as_json_bytes(
        {
            "n_items": int(pipeline.split.train.n_items),
            "users": users.tolist(),
            "scores": pipeline.recommender.predict_matrix(users).tolist(),
            "ganc_top10": pipeline.recommend_all(10).items.tolist(),
        }
    )


def _shard_digests(artifact_dir: Path, kinds: tuple[str, ...]) -> dict[str, str]:
    """SHA-256 of every ``kinds`` shard file the artifact manifest lists."""
    import hashlib

    manifest = json.loads((artifact_dir / "manifest.json").read_text(encoding="utf-8"))
    return {
        entry[kind]: hashlib.sha256((artifact_dir / entry[kind]).read_bytes()).hexdigest()
        for entry in manifest["shards"]
        for kind in kinds
    }


def generate_artifact_tiny() -> bytes:
    """SHA-256 of the compiled shards of eight small artifacts.

    Pins the compile pass — item rows and the diagnostic raw-score rows — of
    GANC(ItemKNN, θG, Dyn) with OSLG, GANC(UserKNN, θG, Dyn) with Locally
    Greedy, GANC(Pop, θG, Stat), bare ItemKNN, bare UserKNN, bare Rand and
    bare Pop with a ``max_users`` cut, plus the item rows of the
    ``ml100k_tiny`` spec's GANC(psvd10) (its GEMM scores may move in the
    last ulp with block composition, so only its items are pinned).  Blocks
    of 7 users and shards of 16 make every artifact span several of each.
    """
    from repro.pipeline import ComponentSpec, DatasetSpec, EvaluationSpec, GANCSpec, PipelineSpec
    from repro.serving import compile_artifact

    def spec(recommender: str, coverage: str | None = None, optimizer: str = "oslg") -> Pipeline:
        """A bare ``recommender``, or GANC(recommender, θG, ``coverage``)."""
        return Pipeline(
            PipelineSpec(
                recommender=ComponentSpec(recommender),
                preference=ComponentSpec("thetag") if coverage else None,
                coverage=ComponentSpec(coverage) if coverage else None,
                ganc=GANCSpec(sample_size=SAMPLE_SIZE, optimizer=optimizer),
                dataset=DatasetSpec(key="ml100k", scale=SCALE),
                evaluation=EvaluationSpec(n=10),
                seed=SEED,
            )
        )

    both = ("items", "scores")
    cases = (
        ("ganc_itemknn", spec("itemknn", "dyn"), None, both),
        ("itemknn", spec("itemknn"), None, both),
        ("pop_max_users", spec("pop"), 41, both),
        ("tiny_spec_psvd10", Pipeline.from_json_file(TINY_SPEC), None, ("items",)),
        ("ganc_userknn_locally_greedy", spec("userknn", "dyn", "locally_greedy"), None, both),
        ("ganc_pop_stat", spec("pop", "stat"), None, both),
        ("userknn", spec("userknn"), None, both),
        ("rand", spec("rand"), None, both),
    )
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, pipeline, max_users, kinds in cases:
            artifact = compile_artifact(
                pipeline.fit(),
                Path(tmp) / name,
                shard_size=16,
                block_size=7,
                max_users=max_users,
            )
            digests[name] = _shard_digests(artifact, kinds)
    return _as_json_bytes(digests)


FIXTURES = {
    "table4_ml100k.json": generate_table4,
    "figure6_ml100k.json": generate_figure6,
    "figure7_8_ml100k.json": generate_figure7_8,
    "ml100k_tiny_metrics.json": generate_tiny_metrics,
    "ml100k_tiny_top5.csv": generate_tiny_top5,
    "oslg_tiny.json": generate_oslg_tiny,
    "sparse_knn_tiny.json": generate_sparse_knn_tiny,
    "itemknn_ganc_tiny.json": generate_itemknn_ganc_tiny,
    "artifact_tiny.json": generate_artifact_tiny,
}

ENVIRONMENT_FILE = "environment.json"


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _environment() -> dict[str, str]:
    """The float-determinism-relevant environment the fixtures were built in.

    Byte-exact float output is only guaranteed against the same numpy/scipy
    line (SVD results can differ in the last ulp across BLAS/LAPACK builds),
    so drift is enforced per ``major.minor`` of both libraries.
    """
    return {
        "numpy": _major_minor(numpy.__version__),
        "scipy": _major_minor(scipy.__version__),
    }


def _check(name: str) -> None:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"golden fixture {path} is missing; generate it with "
        "`PYTHONPATH=src python tests/test_golden_master.py --regenerate`"
    )
    recorded = json.loads((GOLDEN_DIR / ENVIRONMENT_FILE).read_text(encoding="utf-8"))
    current = _environment()
    if recorded != current:
        pytest.skip(
            f"golden fixtures were generated under {recorded} but this "
            f"environment runs {current}; byte equality of float outputs is "
            "only guaranteed within one numpy/scipy line — regenerate the "
            "fixtures here to re-arm the gate for this environment"
        )
    regenerated = FIXTURES[name]()
    committed = path.read_bytes()
    assert regenerated == committed, (
        f"{name} drifted from its committed golden master. If this change is "
        "intentional, refresh the fixtures with `PYTHONPATH=src python "
        "tests/test_golden_master.py --regenerate` and commit the diff."
    )


def test_table4_golden_master():
    _check("table4_ml100k.json")


def test_figure6_golden_master():
    _check("figure6_ml100k.json")


def test_figure7_8_golden_master():
    _check("figure7_8_ml100k.json")


def test_ml100k_tiny_metrics_golden_master():
    _check("ml100k_tiny_metrics.json")


def test_ml100k_tiny_top5_golden_master():
    _check("ml100k_tiny_top5.csv")


def test_oslg_tiny_golden_master():
    _check("oslg_tiny.json")


def test_sparse_knn_tiny_golden_master():
    _check("sparse_knn_tiny.json")


def test_itemknn_ganc_tiny_golden_master():
    _check("itemknn_ganc_tiny.json")


def test_artifact_tiny_golden_master():
    _check("artifact_tiny.json")


def regenerate() -> None:
    """Rewrite every fixture from the current code (reviewable via git diff)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, generate in FIXTURES.items():
        (GOLDEN_DIR / name).write_bytes(generate())
        print(f"wrote {GOLDEN_DIR / name}")
    (GOLDEN_DIR / ENVIRONMENT_FILE).write_bytes(_as_json_bytes(_environment()))
    print(f"wrote {GOLDEN_DIR / ENVIRONMENT_FILE}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        print("pass --regenerate to rewrite the fixtures")
