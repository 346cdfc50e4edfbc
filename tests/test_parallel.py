"""Tests of sharded parallel execution (:mod:`repro.parallel`).

The load-bearing property is *equivalence*: the thread pool (``n_jobs > 1``)
must produce byte-identical outputs to the in-order loop (``n_jobs == 1``)
for every registered recommender, both GANC optimizers, the evaluator and
persisted pipelines, for any block size and worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.static import StaticCoverage
from repro.evaluation.evaluator import Evaluator
from repro.exceptions import ConfigurationError
from repro.ganc.framework import GANC, GANCConfig
from repro.ganc.locally_greedy import LocallyGreedyOptimizer
from repro.parallel import Executor, effective_n_jobs
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    ExecutionSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
    ganc_spec,
)
from repro.preferences.generalized import GeneralizedPreference
from repro.recommenders.base import FittedTopN
from repro.recommenders.registry import make_recommender
from repro.registry import available
from repro.utils.rng import spawn_seed_sequences

N = 5

#: Thread-pool worker counts every equivalence test compares against the
#: in-order loop.
PARALLEL_JOBS = (2, 3)

#: ``n_jobs`` values of the executor mechanics tests, labelled by the path
#: each one takes: the in-order loop or the thread pool.
EXECUTOR_PATHS = [pytest.param(1, id="serial-1"), pytest.param(3, id="thread-3")]


# --------------------------------------------------------------------------- #
# Executor mechanics
# --------------------------------------------------------------------------- #
class _MarkerTask:
    """Returns (first user, size) so ordering mistakes are visible."""

    def __call__(self, users):
        return np.array([users[0], users.size], dtype=np.int64)


class _ExplodingTask:
    def __call__(self, users):
        raise RuntimeError(f"boom at {users[0]}")


class _SeededTask:
    needs_rng = True

    def __call__(self, users, rng):
        return rng.integers(0, 1_000_000, size=users.size)


def test_effective_n_jobs_resolves_minus_one_to_cpu_count():
    assert effective_n_jobs(-1) >= 1
    assert effective_n_jobs(4) == 4


def test_effective_n_jobs_counts_the_affinity_mask_not_the_host(monkeypatch):
    """A process pinned to one CPU gets one worker, whatever the host has."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert effective_n_jobs(-1) == 1


@pytest.mark.parametrize("bad", [0, -2, 1.5, True, "4"])
def test_effective_n_jobs_rejects_non_positive_and_non_int(bad):
    with pytest.raises(ConfigurationError):
        effective_n_jobs(bad)


@pytest.mark.parametrize("n_jobs", EXECUTOR_PATHS)
def test_map_blocks_preserves_block_order(n_jobs):
    blocks = [np.arange(start, start + 3) for start in range(0, 30, 3)]
    results = Executor(n_jobs).map_blocks(_MarkerTask(), blocks)
    assert [int(r[0]) for r in results] == [int(b[0]) for b in blocks]


@pytest.mark.parametrize("n_jobs", EXECUTOR_PATHS)
def test_map_blocks_propagates_worker_exceptions(n_jobs):
    blocks = [np.arange(3), np.arange(3, 6)]
    with pytest.raises(RuntimeError, match="boom"):
        Executor(n_jobs).map_blocks(_ExplodingTask(), blocks)


@pytest.mark.parametrize("n_jobs", [pytest.param(3, id="thread-3")])
def test_seeded_tasks_draw_identical_streams_on_every_backend(n_jobs):
    blocks = [np.arange(start, start + 4) for start in range(0, 20, 4)]
    serial = Executor(1).map_blocks(_SeededTask(), blocks, seed=123)
    parallel = Executor(n_jobs).map_blocks(_SeededTask(), blocks, seed=123)
    for expected, got in zip(serial, parallel):
        np.testing.assert_array_equal(expected, got)


def test_spawn_seed_sequences_children_depend_only_on_seed_and_position():
    short = spawn_seed_sequences(7, 3)
    long = spawn_seed_sequences(7, 10)
    for left, right in zip(short, long):
        assert (
            np.random.default_rng(left).integers(0, 2**32, 8).tolist()
            == np.random.default_rng(right).integers(0, 2**32, 8).tolist()
        )
    # Different positions and different roots give different streams.
    draws = {
        tuple(np.random.default_rng(seq).integers(0, 2**32, 8).tolist())
        for seq in spawn_seed_sequences(7, 10) + spawn_seed_sequences(8, 10)
    }
    assert len(draws) == 20


def test_spawn_seed_sequences_rejects_negative_count():
    with pytest.raises(ValueError):
        spawn_seed_sequences(0, -1)


# --------------------------------------------------------------------------- #
# recommend_all equivalence: every registered recommender, every worker count
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(available("recommender")))
def test_recommend_all_parallel_backends_match_serial(name, small_split):
    model = make_recommender(name, seed=0).fit(small_split.train)
    serial = model.recommend_all(N, block_size=7).items
    for n_jobs in PARALLEL_JOBS:
        parallel = model.recommend_all(N, block_size=7, n_jobs=n_jobs).items
        np.testing.assert_array_equal(parallel, serial, err_msg=f"{name} n_jobs={n_jobs}")


def test_recommend_all_n_jobs_shorthand_matches_serial(small_split):
    model = make_recommender("psvd10").fit(small_split.train)
    serial = model.recommend_all(N).items
    np.testing.assert_array_equal(model.recommend_all(N, n_jobs=3).items, serial)


def test_recommend_all_results_invariant_to_block_size(small_split):
    model = make_recommender("rsvd", n_epochs=2, seed=0).fit(small_split.train)
    reference = model.recommend_all(N).items
    for block_size in (1, 3, 16, 1000):
        for n_jobs in PARALLEL_JOBS:
            got = model.recommend_all(N, block_size=block_size, n_jobs=n_jobs).items
            np.testing.assert_array_equal(got, reference)


# --------------------------------------------------------------------------- #
# GANC equivalence: both optimizers, all coverage types
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "optimizer,coverage_cls",
    [
        ("locally_greedy", DynamicCoverage),
        ("locally_greedy", StaticCoverage),
        ("oslg", DynamicCoverage),  # OSLG rejects stateless coverage
    ],
)
def test_ganc_parallel_backends_match_serial(coverage_cls, optimizer, medium_split):
    def build(n_jobs: int) -> FittedTopN:
        model = GANC(
            make_recommender("psvd10"),
            GeneralizedPreference(),
            coverage_cls(),
            config=GANCConfig(
                sample_size=40, optimizer=optimizer, seed=0, block_size=13, n_jobs=n_jobs
            ),
        )
        model.fit(medium_split.train)
        return model.recommend_all(N)

    serial = build(1)
    for n_jobs in PARALLEL_JOBS:
        parallel = build(n_jobs)
        np.testing.assert_array_equal(
            parallel.items, serial.items, err_msg=f"{optimizer} n_jobs={n_jobs}"
        )
        # Same blocks for any worker count, so the same score bytes.
        assert parallel.scores.tobytes() == serial.scores.tobytes()


def test_run_independent_executor_matches_sequential_run(small_split):
    coverage = StaticCoverage().fit(small_split.train)
    model = make_recommender("pop").fit(small_split.train)
    theta = GeneralizedPreference().estimate(small_split.train).theta
    optimizer = LocallyGreedyOptimizer(coverage, N)
    accuracy = lambda users: model.unit_scores_pair(users, N)  # noqa: E731
    exclusions = small_split.train.user_items_batch
    sequential = optimizer.run(theta, accuracy, exclusions).items
    for n_jobs in PARALLEL_JOBS:
        parallel = optimizer.run_independent(
            theta,
            accuracy,
            exclusions,
            block_size=9,
            n_jobs=n_jobs,
        ).items
        np.testing.assert_array_equal(parallel, sequential)


# --------------------------------------------------------------------------- #
# Evaluator
# --------------------------------------------------------------------------- #
def test_evaluator_parallel_backends_reproduce_serial_metrics(small_split):
    serial_run = Evaluator(small_split, n=N).evaluate_recommender(
        make_recommender("psvd10"), algorithm="psvd10"
    )
    for n_jobs in PARALLEL_JOBS:
        run = Evaluator(
            small_split, n=N, block_size=11, n_jobs=n_jobs
        ).evaluate_recommender(make_recommender("psvd10"), algorithm="psvd10")
        assert run.report.as_dict() == serial_run.report.as_dict()
        for user, items in serial_run.recommendations.items():
            np.testing.assert_array_equal(run.recommendations[user], items)


def test_evaluator_validates_n_jobs_and_backend(small_split):
    with pytest.raises(ConfigurationError):
        Evaluator(small_split, n_jobs=0)
    with pytest.raises(ConfigurationError):
        Evaluator(small_split, n_jobs=-2)


# --------------------------------------------------------------------------- #
# Pipeline: execution section, persistence under non-default settings
# --------------------------------------------------------------------------- #
def test_execution_spec_round_trips_and_validates():
    spec = ExecutionSpec(n_jobs=4)
    assert ExecutionSpec.from_config(spec.to_config()) == spec
    assert ExecutionSpec.from_config({}) == ExecutionSpec()
    # n_jobs is the one key: the retired executor backend is an unknown key.
    with pytest.raises(ConfigurationError, match=r"unknown key\(s\) \['backend'\].*'execution'"):
        ExecutionSpec.from_config({"backend": "thread", "n_jobs": 2})
    with pytest.raises(ConfigurationError):
        ExecutionSpec(n_jobs=0)
    with pytest.raises(ConfigurationError, match="^execution n_jobs must be"):
        PipelineSpec.from_config(
            {"recommender": {"name": "pop"}, "execution": {"n_jobs": 0}}
        )
    with pytest.raises(ConfigurationError):
        ExecutionSpec.from_config({"n_jobs": "two"})
    with pytest.raises(ConfigurationError):
        ExecutionSpec.from_config({"workers": 2})


def test_pipeline_spec_round_trips_execution_section():
    spec = ganc_spec(
        dataset="ml100k", arec="pop", theta="thetaG",
        n_jobs=2, scale=0.1,
    )
    assert spec.execution == ExecutionSpec(n_jobs=2)
    rebuilt = PipelineSpec.from_json(spec.to_json())
    assert rebuilt == spec
    # Pre-execution-section configs (older spec files) still load.
    config = spec.to_config()
    del config["execution"]
    assert PipelineSpec.from_config(config).execution == ExecutionSpec()


def _parallel_spec(n_jobs: int, block_size: int | None) -> PipelineSpec:
    return PipelineSpec(
        dataset=DatasetSpec(key="ml100k", scale=0.12),
        recommender=ComponentSpec("psvd10"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=25, optimizer="oslg", block_size=block_size),
        evaluation=EvaluationSpec(n=N, block_size=block_size),
        execution=ExecutionSpec(n_jobs=n_jobs),
        seed=0,
    )


def test_pipeline_execution_section_reproduces_serial_output():
    serial = Pipeline(_parallel_spec(1, None)).fit()
    reference = serial.recommend_all().items
    for n_jobs in PARALLEL_JOBS:
        pipeline = Pipeline(_parallel_spec(n_jobs, 17)).fit(serial.split)
        np.testing.assert_array_equal(pipeline.recommend_all().items, reference)


def test_pipeline_save_load_under_non_default_block_size_and_n_jobs(tmp_path):
    """A persisted pipeline must serve byte-identical top-N from the thread pool."""
    pipeline = Pipeline(_parallel_spec(2, 7)).fit()
    reference = pipeline.recommend_all().items

    saved = pipeline.save(tmp_path / "artifact")
    loaded = Pipeline.load(saved)
    assert loaded.spec.execution == ExecutionSpec(n_jobs=2)
    assert loaded.spec.ganc.block_size == 7
    np.testing.assert_array_equal(loaded.recommend_all().items, reference)
    np.testing.assert_array_equal(
        loaded.recommender.recommend_all(N, block_size=7, n_jobs=2).items,
        loaded.recommender.recommend_all(N, block_size=7).items,
    )


def test_pipeline_set_execution_propagates_to_fitted_model():
    pipeline = Pipeline(_parallel_spec(1, None)).fit()
    reference = pipeline.recommend_all().items
    pipeline.set_execution(ExecutionSpec(n_jobs=2))
    assert pipeline.model is not None
    assert pipeline.model.config.n_jobs == 2
    np.testing.assert_array_equal(pipeline.recommend_all().items, reference)
