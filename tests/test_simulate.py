"""Tests for the traffic-replay simulator (``repro.simulate``).

The two load-bearing guarantees:

* **Determinism** — a fixed seed yields byte-identical traces and run
  reports for any worker count.
* **The online invariant** — the delta-updated coverage state equals a
  from-scratch recompute over the consumed-event history, bitwise, at every
  window boundary (asserted by ``verify=True`` inside the engine).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError, SimulationError
from repro.parallel.executor import Executor
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.spec import (
    ComponentSpec,
    EvaluationSpec,
    GANCSpec,
    PipelineSpec,
)
from repro.serving.artifact import compile_artifact
from repro.simulate import (
    KIND_COLD,
    KIND_EXISTING,
    KIND_RETURNING,
    AcceptAll,
    PipelineSource,
    SimulationConfig,
    StoreSource,
    Trace,
    build_trace,
    canonical_bytes,
    create_feedback,
    create_source,
    label_kinds,
    load_report,
    run_simulation,
    validate_report,
    write_report,
)
from repro.simulate.scenarios import _pools

N = 5
N_EVENTS = 180
WINDOW = 60


def _pop_spec() -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec("pop"), evaluation=EvaluationSpec(n=N), seed=0
    )


def _ganc_spec() -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec("pop"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=16, optimizer="oslg"),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )


@pytest.fixture(scope="module")
def sim_pipeline_dir(tmp_path_factory, small_split) -> Path:
    directory = tmp_path_factory.mktemp("sim-pipeline")
    Pipeline(_pop_spec()).fit(small_split).save(directory)
    return directory


@pytest.fixture(scope="module")
def sim_artifact_dir(tmp_path_factory, sim_pipeline_dir) -> Path:
    directory = tmp_path_factory.mktemp("sim-artifact")
    compile_artifact(sim_pipeline_dir, directory, shard_size=16)
    return directory


# --------------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------------- #
class TestTrace:
    def test_label_kinds_first_vs_repeat_vs_cold(self):
        users = np.array([3, 9, 3, 9, 4], dtype=np.int64)
        kinds = label_kinds(users, cold_pool=np.array([9]))
        assert kinds.tolist() == [
            KIND_EXISTING, KIND_COLD, KIND_RETURNING, KIND_RETURNING, KIND_EXISTING,
        ]

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(SimulationError, match="non-decreasing"):
            Trace(
                scenario="steady", seed=0, n_users=4, n_items=10,
                timestamps=np.array([2.0, 1.0]),
                users=np.array([0, 1]),
                kinds=np.array([0, 0], dtype=np.uint8),
            )

    def test_out_of_range_user_rejected(self):
        with pytest.raises(SimulationError, match=r"\[0, 4\)"):
            Trace(
                scenario="steady", seed=0, n_users=4, n_items=10,
                timestamps=np.array([1.0, 2.0]),
                users=np.array([0, 4]),
                kinds=np.array([0, 0], dtype=np.uint8),
            )

    def test_shard_layout_is_a_pure_function_of_the_event_count(self):
        trace = build_trace("steady", n_users=20, n_items=30, n_events=11, seed=1)
        blocks = trace.shard(4)
        assert [b.tolist() for b in blocks] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10],
        ]
        # More shards than events: empty shards are dropped.
        assert sum(b.size for b in trace.shard(50)) == 11

    def test_digest_separates_seeds_and_scenarios(self):
        kwargs = dict(n_users=20, n_items=30, n_events=40)
        a = build_trace("steady", seed=0, **kwargs)
        b = build_trace("steady", seed=1, **kwargs)
        c = build_trace("burst", seed=0, **kwargs)
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()
        assert a.digest() == build_trace("steady", seed=0, **kwargs).digest()

    def test_columns_are_immutable(self):
        trace = build_trace("steady", n_users=20, n_items=30, n_events=5, seed=0)
        with pytest.raises(ValueError):
            trace.users[0] = 1


# --------------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------------- #
class TestScenarios:
    def test_same_arguments_give_byte_identical_traces(self):
        for scenario in ("steady", "burst", "coldstart"):
            a = build_trace(scenario, n_users=40, n_items=60, n_events=90, seed=5)
            b = build_trace(scenario, n_users=40, n_items=60, n_events=90, seed=5)
            assert a.tobytes() == b.tobytes(), scenario

    def test_burst_concentrates_middle_third_on_the_hot_pool(self):
        trace = build_trace("burst", n_users=100, n_items=60, n_events=90, seed=2)
        _, _, hot = _pools(100)
        middle = trace.users[30:60]
        assert np.isin(middle, hot).all()
        # The spike arrives ~10x faster than the steady thirds.
        gaps = np.diff(trace.timestamps)
        assert gaps[30:59].mean() < gaps[:29].mean() / 2

    def test_coldstart_wave_draws_from_the_cold_pool(self):
        trace = build_trace("coldstart", n_users=100, n_items=60, n_events=100, seed=3)
        _, cold, _ = _pools(100)
        wave = trace.users[60:85]
        assert np.isin(wave, cold).all()
        assert (trace.kinds == KIND_COLD).sum() > 0

    def test_steady_never_touches_the_cold_pool(self):
        trace = build_trace("steady", n_users=100, n_items=60, n_events=200, seed=4)
        _, cold, _ = _pools(100)
        assert not np.isin(trace.users, cold).any()
        assert (trace.kinds == KIND_COLD).sum() == 0

    def test_replay_uses_test_interactions(self, small_split):
        n_users = small_split.test.n_users
        trace = build_trace(
            "replay", n_users=n_users, n_items=small_split.test.n_items,
            n_events=50, seed=6, split=small_split,
        )
        assert trace.n_events == min(50, small_split.test.n_ratings)
        assert np.isin(trace.users, np.unique(small_split.test.user_indices)).all()

    def test_replay_without_split_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="replay"):
            build_trace("replay", n_users=10, n_items=10, n_events=5, seed=0)

    def test_replay_user_universe_mismatch_raises(self, small_split):
        with pytest.raises(SimulationError, match="users"):
            build_trace(
                "replay", n_users=small_split.test.n_users + 7,
                n_items=small_split.test.n_items, n_events=5, seed=0,
                split=small_split,
            )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            build_trace("tsunami", n_users=10, n_items=10, n_events=5, seed=0)


# --------------------------------------------------------------------------- #
# Feedback models
# --------------------------------------------------------------------------- #
class TestFeedback:
    def test_accept_all_consumes_every_valid_slot(self):
        model = AcceptAll()
        row = np.array([4, 2, 9, -1, -1])
        out = model.consume(row, None, np.random.default_rng(0))
        assert out.tolist() == [4, 2, 9]

    def test_position_biased_is_a_rank_ordered_subset(self):
        model = create_feedback("position-biased", attraction=0.9, decay=0.6)
        row = np.arange(10, dtype=np.int64)
        out = model.consume(row, None, np.random.default_rng(1))
        assert np.isin(out, row).all()
        assert (np.diff(np.searchsorted(row, out)) > 0).all()
        # Same rng state, same draws.
        again = model.consume(row, None, np.random.default_rng(1))
        np.testing.assert_array_equal(out, again)

    def test_position_biased_head_gets_more_feedback_than_tail(self):
        model = create_feedback("position-biased")
        rng = np.random.default_rng(7)
        row = np.arange(10, dtype=np.int64)
        counts = np.zeros(10)
        for _ in range(500):
            np.add.at(counts, model.consume(row, None, rng), 1)
        assert counts[0] > counts[-1] * 2

    def test_threshold_keeps_scores_above_the_fraction(self):
        model = create_feedback("threshold", fraction=0.5)
        row = np.array([10, 11, 12, 13])
        scores = np.array([8.0, 4.1, 3.9, np.nan])
        assert model.consume(row, scores, np.random.default_rng(0)).tolist() == [10, 11]

    def test_threshold_without_scores_takes_the_top_slot(self):
        model = create_feedback("threshold")
        row = np.array([10, 11, 12])
        assert model.consume(row, None, np.random.default_rng(0)).tolist() == [10]
        all_nan = np.full(3, np.nan)
        assert model.consume(row, all_nan, np.random.default_rng(0)).tolist() == [10]

    def test_create_feedback_validates_names_and_params(self):
        with pytest.raises(ConfigurationError, match="unknown feedback"):
            create_feedback("clickbait")
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            create_feedback("accept-all", attraction=0.5)
        with pytest.raises(ConfigurationError, match="attraction"):
            create_feedback("position-biased", attraction=1.5)


# --------------------------------------------------------------------------- #
# Determinism: worker counts
# --------------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize(
        "jobs",
        [
            pytest.param(1, id="serial-1"),
            pytest.param(2, id="thread-2"),
            pytest.param(5, id="thread-5"),
        ],
    )
    def test_store_replay_bytes_match_serial_reference(self, sim_artifact_dir, jobs):
        config = SimulationConfig(
            scenario="burst", n_events=N_EVENTS, n=N, window=WINDOW,
            seed=42, shards=4, verify=True,
        )
        reference = run_simulation(
            StoreSource(sim_artifact_dir), config, executor=Executor(1)
        )
        result = run_simulation(
            StoreSource(sim_artifact_dir), config, executor=Executor(jobs)
        )
        assert result.trace.tobytes() == reference.trace.tobytes()
        assert canonical_bytes(result.report) == canonical_bytes(reference.report)
        assert validate_report(result.report) == []

    def test_seed_changes_the_report(self, sim_artifact_dir):
        source = StoreSource(sim_artifact_dir)
        runs = [
            run_simulation(
                source,
                SimulationConfig(
                    scenario="steady", n_events=120, n=N, window=WINDOW, seed=seed
                ),
            )
            for seed in (0, 1)
        ]
        assert runs[0].report["trace_digest"] != runs[1].report["trace_digest"]

    def test_shards_are_configuration_not_mechanism(self, sim_artifact_dir):
        """Different shard counts are different runs (documented contract)."""
        source = StoreSource(sim_artifact_dir)
        base = dict(scenario="steady", n_events=120, n=N, window=WINDOW, seed=9)
        two = run_simulation(source, SimulationConfig(shards=2, **base))
        four = run_simulation(source, SimulationConfig(shards=4, **base))
        # Same trace (sharding never changes what is replayed)...
        assert two.trace.tobytes() == four.trace.tobytes()
        # ...but distinct feedback randomness layouts, recorded in the config.
        assert two.report["config"]["shards"] == 2
        assert four.report["config"]["shards"] == 4


# --------------------------------------------------------------------------- #
# The online loop and its invariant
# --------------------------------------------------------------------------- #
class TestOnlineFeedback:
    def test_online_runs_are_reproducible_and_verified(self, small_split):
        reports = []
        for _ in range(2):  # two independent fits, byte-identical runs
            source = PipelineSource(Pipeline(_ganc_spec()).fit(small_split))
            assert source.online
            result = run_simulation(
                source,
                SimulationConfig(
                    scenario="coldstart", n_events=120, n=N, window=40,
                    seed=9, verify=True,
                ),
            )
            reports.append(canonical_bytes(result.report))
        assert reports[0] == reports[1]

    def test_online_feedback_advances_the_live_coverage_state(self, small_split):
        source = PipelineSource(Pipeline(_ganc_spec()).fit(small_split))
        before = source.coverage_counts()
        result = run_simulation(
            source,
            SimulationConfig(
                scenario="steady", n_events=60, n=N, window=30, seed=1, verify=True,
            ),
        )
        after = source.coverage_counts()
        # verify=True already asserted bitwise equality with the recompute;
        # here we pin the externally visible effect.
        assert int((after - before).sum()) == result.report["totals"]["consumed"]
        assert result.report["config"]["online"] is True
        assert result.report["config"]["verified"] is True

    def test_offline_pipeline_source_is_not_online(self, small_split):
        source = PipelineSource(Pipeline(_pop_spec()).fit(small_split))
        assert not source.online
        assert source.coverage_counts() is None

    def test_accuracy_metrics_present_with_a_split(self, small_split):
        source = PipelineSource(Pipeline(_pop_spec()).fit(small_split))
        result = run_simulation(
            source,
            SimulationConfig(scenario="replay", n_events=80, n=N, window=40, seed=3),
        )
        for window in result.report["windows"]:
            assert window["precision"] is not None
            assert 0.0 <= window["precision"] <= 1.0
            assert window["epc"] is not None

    def test_store_without_split_reports_none_accuracy(self, sim_artifact_dir):
        result = run_simulation(
            StoreSource(sim_artifact_dir),
            SimulationConfig(scenario="steady", n_events=60, n=N, window=30, seed=0),
        )
        assert all(w["precision"] is None for w in result.report["windows"])


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
class TestReport:
    @pytest.fixture(scope="class")
    def report(self, sim_artifact_dir):
        return run_simulation(
            StoreSource(sim_artifact_dir),
            SimulationConfig(scenario="burst", n_events=120, n=N, window=40, seed=5),
        ).report

    def test_engine_reports_validate_cleanly(self, report):
        assert validate_report(report) == []

    def test_window_schema_violations_are_caught(self, report):
        import copy

        broken = copy.deepcopy(report)
        del broken["windows"][0]["window_gini"]
        assert any("windows[0]" in e for e in validate_report(broken))

        broken = copy.deepcopy(report)
        broken["windows"][1]["window_coverage"] = float("nan")
        assert any("finite" in e for e in validate_report(broken))

        broken = copy.deepcopy(report)
        broken["schema"] = 99
        assert any("schema" in e for e in validate_report(broken))

    def test_write_load_round_trip_is_canonical(self, report, tmp_path):
        path = write_report(report, tmp_path / "run.json")
        assert path.read_bytes() == canonical_bytes(report)
        assert load_report(path) == report

    def test_invalid_report_refused_at_write_time(self, tmp_path):
        with pytest.raises(SimulationError, match="invalid simulation report"):
            write_report({"schema": 1}, tmp_path / "bad.json")


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_simulate_cli_writes_a_deterministic_report(
        self, sim_artifact_dir, sim_pipeline_dir, tmp_path, capsys
    ):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = [
            "simulate", "--source", "store",
            "--artifact", str(sim_artifact_dir),
            "--pipeline", str(sim_pipeline_dir),
            "--scenario", "coldstart", "--events", "120", "--n", str(N),
            "--window", "40", "--seed", "13", "--verify",
        ]
        assert main([*base, "--out", str(out_a)]) == 0
        assert main([*base, "--jobs", "3", "--backend", "thread", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        report = load_report(out_a)
        assert report["scenario"] == "coldstart"
        assert report["config"]["verified"] is True
        # The split wired via --pipeline enables the accuracy proxies.
        assert report["windows"][0]["precision"] is not None
        captured = capsys.readouterr().out
        assert "online invariant verified" in captured

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "--events", "0"], "--events"),
            (["simulate", "--events", "abc"], "--events"),
            (["simulate", "--scenario", "tsunami"], "--scenario"),
            (["simulate", "--feedback", "clickbait"], "--feedback"),
            (["simulate", "--source", "carrier-pigeon"], "--source"),
            (["simulate", "--window", "0"], "--window"),
            (["simulate", "--shards", "0"], "--shards"),
        ],
    )
    def test_parse_time_errors_name_the_flag(self, argv, flag):
        with pytest.raises(ConfigurationError, match=flag.replace("-", "[-]")):
            main(argv)

    def test_missing_source_flags_are_named(self):
        with pytest.raises(ConfigurationError, match="--pipeline"):
            main(["simulate", "--source", "pipeline"])
        with pytest.raises(ConfigurationError, match="--artifact"):
            main(["simulate", "--source", "store"])
        with pytest.raises(ConfigurationError, match="--url"):
            main(["simulate", "--source", "http"])

    def test_create_source_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown source"):
            create_source("oracle", artifact_dir=None, pipeline_dir=None, url=None)
