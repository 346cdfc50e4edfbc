"""Schema checks for the committed machine-readable benchmark outputs.

``benchmarks/output/BENCH_*.json`` documents are the PR-over-PR performance
trajectory; these tests pin their schema (via the shared ``bench_json``
validator) so a malformed committed document — or a drifting schema —
fails in the tier-1 suite, not only in the CI bench-smoke job.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"

sys.path.insert(0, str(BENCH_DIR))

import bench_json  # noqa: E402

#: Documents every PR must keep committed (one per standalone driver).
EXPECTED_DOCUMENTS = (
    "BENCH_ganc.json",
    "BENCH_batch_scoring.json",
    "BENCH_parallel_scaling.json",
    "BENCH_serving.json",
    "BENCH_scale.json",
    "BENCH_simulate.json",
    "BENCH_update.json",
)


@pytest.mark.parametrize("name", EXPECTED_DOCUMENTS)
def test_committed_bench_document_is_valid(name):
    path = OUTPUT_DIR / name
    assert path.exists(), (
        f"{name} is missing; regenerate it with "
        "`PYTHONPATH=src python benchmarks/run_all.py`"
    )
    payload = bench_json.load_and_validate(path)
    assert f"BENCH_{payload['bench']}.json" == name


def test_ganc_document_records_the_issue_gates():
    """The committed GANC numbers must clear the ISSUE's headline gates."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_ganc.json")
    headline = payload["config"]["headline"]
    speedups = payload["speedups"]
    assert payload["equal"] is True
    assert speedups[f"{headline}_sequential_sampled_pass"] >= 5.0
    assert speedups[f"{headline}_oslg_end_to_end"] >= 3.0


def test_serving_document_records_the_load_gate():
    """The committed serving numbers must clear the ISSUE's load gates."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_serving.json")
    config = payload["config"]
    metrics = payload["metrics"]
    assert payload["equal"] is True
    assert config["clients"] >= 16
    for key in ("rps", "p50_us", "p95_us", "p99_us"):
        assert metrics[key] > 0
    for tier in ("async", "coalesced"):
        assert metrics[f"{tier}_rps"] > 0
        assert metrics[f"{tier}_p99_us"] >= metrics[f"{tier}_p50_us"]
    # Headline metrics are the coalesced tier's.
    assert metrics["rps"] == metrics["coalesced_rps"]
    assert payload["speedups"]["coalesced_vs_async_rps"] >= 1.0


def test_simulate_document_records_throughput_and_drift_series():
    """The committed simulation numbers: throughput, determinism, drift."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_simulate.json")
    metrics = payload["metrics"]
    assert payload["equal"] is True  # serial vs threaded replay byte-identical
    assert metrics["events_per_s"] > 0
    assert metrics["online_events_per_s"] > 0
    n_windows = payload["config"]["events"] // payload["config"]["window"]
    for index in range(n_windows):
        assert 0.0 <= metrics[f"window_{index}_coverage"] <= 1.0
        assert 0.0 <= metrics[f"window_{index}_gini"] <= 1.0
        assert 0.0 <= metrics[f"window_{index}_precision"] <= 1.0
        assert 0.0 <= metrics[f"window_{index}_epc"] <= 1.0
    assert 0.0 <= metrics["cumulative_coverage"] <= 1.0
    assert 0.0 <= metrics["online_cumulative_coverage"] <= 1.0


def test_update_document_records_delta_compile_numbers():
    """The committed delta-update numbers: byte identity + cold-start win."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_update.json")
    metrics = payload["metrics"]
    speedups = payload["speedups"]
    # Every updated artifact was byte-compared against a from-scratch
    # compile of the extended dataset.
    assert payload["equal"] is True
    for label in ("rating", "coldstart"):
        assert metrics[f"{label}_update_s"] > 0
        assert metrics[f"{label}_scratch_s"] > 0
        assert metrics[f"{label}_rows_recomputed"] >= 1
    # Cold-start arrivals hit the narrowed path: most rows carried over,
    # unchanged shards left in place, and the update beats a full recompile.
    assert metrics["coldstart_shards_skipped"] >= 1
    assert speedups["coldstart_update_vs_scratch"] >= 2.0


def test_parallel_document_was_measured_where_the_cores_exist():
    """A speed-up at --jobs J means nothing on fewer than J visible CPUs."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_parallel_scaling.json")
    config = payload["config"]
    assert payload["equal"] is True
    jobs = [int(value) for value in str(config["jobs"]).split()]
    assert config["cpus_visible"] >= max(jobs)


def test_scale_document_records_the_issue_gates():
    """The committed 10M-rating numbers: every stage ran, within 8 GB of RSS."""
    payload = bench_json.load_and_validate(OUTPUT_DIR / "BENCH_scale.json")
    config = payload["config"]
    metrics = payload["metrics"]
    # The workload really is the 10M-rating target.
    assert config["ratings"] >= 10_000_000
    for key in (
        "generate_rows_per_s",
        "ingest_rows_per_s",
        "fit_s",
        "score_users_per_s",
        "compile_users_per_s",
        "peak_rss_mb",
    ):
        assert metrics[key] > 0
    # The whole 10M-rating stack fits on an 8 GB host.
    assert metrics["peak_rss_mb"] < 8192


def test_batch_scoring_bench_records_an_unequal_leg(monkeypatch, tmp_path):
    """``equal`` is the conjunction of the legs' flags, not a constant."""
    import json

    import numpy as np

    import bench_batch_scoring

    def wrong_loop(model, n):
        return np.full((model.train_data.n_users, n), -1, dtype=np.int64)

    monkeypatch.setattr(bench_json, "OUTPUT_DIR", tmp_path)
    monkeypatch.setattr(bench_batch_scoring, "BENCH_MODELS", {"pop": {}})
    monkeypatch.setattr(bench_batch_scoring, "_loop_recommend_all", wrong_loop)
    assert bench_batch_scoring.main(["--scale", "0.05", "--repeats", "1"]) == 0
    payload = json.loads((tmp_path / "BENCH_batch_scoring.json").read_text(encoding="utf-8"))
    assert payload["equal"] is False


def test_smoke_pass_leaves_the_committed_outputs_alone(monkeypatch, tmp_path, capsys):
    """``run_all.py --smoke`` writes and validates in a scratch directory."""
    import run_all

    committed = tmp_path / "committed"
    monkeypatch.setattr(bench_json, "OUTPUT_DIR", committed)
    assert run_all.main(["--smoke", "--only", "scale"]) == 0
    assert "validated" in capsys.readouterr().out
    assert not committed.exists()
    assert bench_json.OUTPUT_DIR == committed


def test_validator_rejects_malformed_payloads():
    assert bench_json.validate_payload([]) != []
    assert bench_json.validate_payload({"schema": 0}) != []
    errors = bench_json.validate_payload(
        {
            "schema": bench_json.SCHEMA_VERSION,
            "bench": "x",
            "config": {"a": 1},
            "metrics": {"m": float("nan")},
        }
    )
    assert any("finite" in error for error in errors)
    assert (
        bench_json.validate_payload(
            {
                "schema": bench_json.SCHEMA_VERSION,
                "bench": "x",
                "config": {"a": 1},
                "metrics": {"m": 1.0},
                "speedups": {"s": 2.0},
                "equal": True,
            }
        )
        == []
    )
