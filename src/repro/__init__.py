"""repro — reproduction of the GANC top-N recommendation framework.

The package implements the full system described in "A Generic Top-N
Recommendation Framework For Trading-off Accuracy, Novelty, and Coverage"
(Zolaktaf, Babanezhad, Pottinger — ICDE 2018): the user long-tail preference
estimators, the GANC re-ranking framework with its OSLG optimizer, the base
recommenders and re-ranking baselines it is compared against, the Table III
metric suite, and an experiment harness that regenerates every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import make_dataset, split_ratings, GANC, GANCConfig
>>> from repro.recommenders import PureSVD
>>> from repro.preferences import GeneralizedPreference
>>> from repro.coverage import DynamicCoverage
>>> data = make_dataset("ml100k", scale=0.5)
>>> split = split_ratings(data, train_ratio=0.5, seed=0)
>>> model = GANC(PureSVD(n_factors=50), GeneralizedPreference(), DynamicCoverage(),
...              config=GANCConfig(sample_size=100, seed=0))
>>> top5 = model.fit(split.train).recommend_all(5)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the subpackage it is imported from on first access, so
#: ``import repro`` (and with it ``python -m repro``) imports no subpackage.
_EXPORTS = {
    **dict.fromkeys(
        (
            "RatingDataset",
            "TrainTestSplit",
            "RatioSplitter",
            "LeaveKOutSplitter",
            "split_ratings",
            "PopularityStats",
            "long_tail_items",
            "SyntheticConfig",
            "SyntheticDatasetFactory",
            "DATASET_PROFILES",
            "make_dataset",
        ),
        "repro.data",
    ),
    **dict.fromkeys(
        (
            "ActivityPreference",
            "NormalizedLongTailPreference",
            "TfidfPreference",
            "GeneralizedPreference",
            "RandomPreference",
            "ConstantPreference",
            "PreferenceResult",
            "make_preference_model",
        ),
        "repro.preferences",
    ),
    **dict.fromkeys(
        (
            "MostPopular",
            "RandomRecommender",
            "RSVD",
            "PureSVD",
            "CofiRank",
            "ItemKNN",
            "make_recommender",
        ),
        "repro.recommenders",
    ),
    **dict.fromkeys(
        (
            "RandomCoverage",
            "StaticCoverage",
            "DynamicCoverage",
            "CoverageState",
            "DeltaSnapshots",
            "make_coverage",
        ),
        "repro.coverage",
    ),
    **dict.fromkeys(
        ("GANC", "GANCConfig", "OSLGOptimizer", "LocallyGreedyOptimizer", "GaussianKDE"),
        "repro.ganc",
    ),
    **dict.fromkeys(
        (
            "RankingBasedTechnique",
            "ResourceAllocation5D",
            "PersonalizedRankingAdaptation",
            "make_reranker",
        ),
        "repro.rerankers",
    ),
    **dict.fromkeys(("MetricReport", "evaluate_top_n"), "repro.metrics"),
    **dict.fromkeys(
        ("Evaluator", "AllUnratedItemsProtocol", "RatedTestItemsProtocol"),
        "repro.evaluation",
    ),
    **dict.fromkeys(("register", "create", "available"), "repro.registry"),
    **dict.fromkeys(
        (
            "Pipeline",
            "PipelineSpec",
            "ComponentSpec",
            "DatasetSpec",
            "EvaluationSpec",
            "ExecutionSpec",
            "GANCSpec",
            "ganc_spec",
        ),
        "repro.pipeline",
    ),
    "Executor": "repro.parallel",
    **dict.fromkeys(
        (
            "RecommendationStore",
            "compile_artifact",
            "load_manifest",
            "AsyncRecommendationService",
            "build_async_service",
        ),
        "repro.serving",
    ),
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
