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

from repro.data import (
    RatingDataset,
    TrainTestSplit,
    RatioSplitter,
    LeaveKOutSplitter,
    split_ratings,
    PopularityStats,
    long_tail_items,
    SyntheticConfig,
    SyntheticDatasetFactory,
    DATASET_PROFILES,
    make_dataset,
)
from repro.preferences import (
    ActivityPreference,
    NormalizedLongTailPreference,
    TfidfPreference,
    GeneralizedPreference,
    RandomPreference,
    ConstantPreference,
    PreferenceResult,
    make_preference_model,
)
from repro.recommenders import (
    MostPopular,
    RandomRecommender,
    RSVD,
    PureSVD,
    CofiRank,
    ItemKNN,
    make_recommender,
)
from repro.coverage import (
    RandomCoverage,
    StaticCoverage,
    DynamicCoverage,
    CoverageState,
    DeltaSnapshots,
    make_coverage,
)
from repro.ganc import GANC, GANCConfig, OSLGOptimizer, LocallyGreedyOptimizer, GaussianKDE
from repro.rerankers import (
    RankingBasedTechnique,
    ResourceAllocation5D,
    PersonalizedRankingAdaptation,
    make_reranker,
)
from repro.metrics import MetricReport, evaluate_top_n
from repro.evaluation import Evaluator, AllUnratedItemsProtocol, RatedTestItemsProtocol
from repro.registry import available, create, register
from repro.pipeline import (
    Pipeline,
    PipelineSpec,
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    ExecutionSpec,
    GANCSpec,
    ganc_spec,
)
from repro.parallel import Executor, resolve_executor
from repro.serving import (
    AsyncRecommendationService,
    RecommendationStore,
    build_async_service,
    compile_artifact,
    load_manifest,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
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
    # preferences
    "ActivityPreference",
    "NormalizedLongTailPreference",
    "TfidfPreference",
    "GeneralizedPreference",
    "RandomPreference",
    "ConstantPreference",
    "PreferenceResult",
    "make_preference_model",
    # recommenders
    "MostPopular",
    "RandomRecommender",
    "RSVD",
    "PureSVD",
    "CofiRank",
    "ItemKNN",
    "make_recommender",
    # coverage
    "RandomCoverage",
    "StaticCoverage",
    "DynamicCoverage",
    "CoverageState",
    "DeltaSnapshots",
    "make_coverage",
    # GANC
    "GANC",
    "GANCConfig",
    "OSLGOptimizer",
    "LocallyGreedyOptimizer",
    "GaussianKDE",
    # re-ranking baselines
    "RankingBasedTechnique",
    "ResourceAllocation5D",
    "PersonalizedRankingAdaptation",
    "make_reranker",
    # evaluation
    "MetricReport",
    "evaluate_top_n",
    "Evaluator",
    "AllUnratedItemsProtocol",
    "RatedTestItemsProtocol",
    # component registry
    "register",
    "create",
    "available",
    # pipeline API
    "Pipeline",
    "PipelineSpec",
    "ComponentSpec",
    "DatasetSpec",
    "EvaluationSpec",
    "ExecutionSpec",
    "GANCSpec",
    "ganc_spec",
    # parallel execution
    "Executor",
    "resolve_executor",
    # serving
    "RecommendationStore",
    "compile_artifact",
    "load_manifest",
    "AsyncRecommendationService",
    "build_async_service",
]
