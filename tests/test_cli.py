"""Tests for the command-line interface."""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError


def test_parser_knows_every_subcommand():
    parser = build_parser()
    help_text = parser.format_help()
    for command in (
        "table2", "figure1", "figure2", "figure3", "figure4", "figure5",
        "table4", "table5", "figure6", "figure7-8",
        "ablation-oslg", "ablation-ordering", "recommend",
    ):
        assert command in help_text


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["table2", "--datasets", "not-a-dataset"])


def test_cli_table2_prints_rows(capsys):
    exit_code = main(["table2", "--scale", "0.2", "--datasets", "ml100k"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "ML-100K" in out


def test_cli_table2_writes_output_file(tmp_path, capsys):
    target = tmp_path / "table2.txt"
    exit_code = main(["table2", "--scale", "0.2", "--datasets", "ml100k", "--output", str(target)])
    assert exit_code == 0
    assert target.exists()
    assert "ML-100K" in target.read_text()


def test_cli_figure1_runs(capsys):
    exit_code = main(["figure1", "--scale", "0.2", "--datasets", "ml100k"])
    assert exit_code == 0
    assert "Figure 1" in capsys.readouterr().out


def test_cli_figure2_runs(capsys):
    exit_code = main(["figure2", "--scale", "0.2", "--datasets", "ml100k"])
    assert exit_code == 0
    assert "thetaG" in capsys.readouterr().out


def test_cli_ablation_ordering_runs(capsys):
    exit_code = main(["ablation-ordering", "--dataset", "ml100k", "--scale", "0.2"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "increasing" in out and "decreasing" in out


def test_cli_report_writes_markdown(tmp_path, capsys):
    target = tmp_path / "report.md"
    exit_code = main(
        [
            "report",
            "--datasets", "ml100k",
            "--scale", "0.2",
            "--sample-size", "40",
            "--skip-table4",
            "--skip-figure6",
            "--output", str(target),
        ]
    )
    assert exit_code == 0
    assert target.exists()
    assert "# GANC reproduction report" in target.read_text()


def test_cli_recommend_reports_metrics(capsys, tmp_path):
    recs_file = tmp_path / "recs.csv"
    exit_code = main(
        [
            "recommend",
            "--dataset", "ml100k",
            "--scale", "0.2",
            "--arec", "pop",
            "--theta", "thetaT",
            "--coverage", "dyn",
            "--sample-size", "30",
            "--save-recommendations", str(recs_file),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "f_measure" in out and "coverage" in out
    assert recs_file.exists()
    header = recs_file.read_text().splitlines()[0]
    assert header == "user,rank,item"


def test_cli_recommend_dump_spec_and_run_reproduce_csv(tmp_path, capsys):
    """`run --config` must reproduce the `recommend` CSV byte-identically."""
    spec_path = tmp_path / "spec.json"
    rec_csv = tmp_path / "recommend.csv"
    run_csv = tmp_path / "run.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.2",
            "--arec", "psvd10", "--theta", "thetaN", "--coverage", "dyn",
            "--sample-size", "30",
            "--dump-spec", str(spec_path),
            "--save-recommendations", str(rec_csv),
        ]
    ) == 0
    assert spec_path.exists()
    assert main(
        ["run", "--config", str(spec_path), "--save-recommendations", str(run_csv)]
    ) == 0
    assert rec_csv.read_bytes() == run_csv.read_bytes()


def test_cli_run_save_and_load_pipeline_serve_identically(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    artifact = tmp_path / "artifact"
    first_csv = tmp_path / "first.csv"
    served_csv = tmp_path / "served.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.2",
            "--arec", "pop", "--theta", "thetaT", "--coverage", "stat",
            "--sample-size", "30", "--dump-spec", str(spec_path),
        ]
    ) == 0
    assert main(
        [
            "run", "--config", str(spec_path),
            "--save-pipeline", str(artifact),
            "--save-recommendations", str(first_csv),
        ]
    ) == 0
    assert (artifact / "spec.json").exists()
    assert (artifact / "state.npz").exists()
    assert main(
        [
            "run", "--load-pipeline", str(artifact),
            "--save-recommendations", str(served_csv),
        ]
    ) == 0
    assert first_csv.read_bytes() == served_csv.read_bytes()


def test_cli_run_requires_a_source(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        main(["run"])


def test_cli_block_size_is_accepted_and_preserves_output(tmp_path, capsys):
    default_csv = tmp_path / "default.csv"
    blocked_csv = tmp_path / "blocked.csv"
    base = [
        "recommend", "--dataset", "ml100k", "--scale", "0.2",
        "--arec", "psvd10", "--theta", "thetaN", "--coverage", "stat",
        "--sample-size", "30",
    ]
    assert main(base + ["--save-recommendations", str(default_csv)]) == 0
    assert main(
        base + ["--block-size", "7", "--save-recommendations", str(blocked_csv)]
    ) == 0
    assert default_csv.read_bytes() == blocked_csv.read_bytes()


def test_cli_recommend_honors_output_file(tmp_path, capsys):
    target = tmp_path / "metrics.txt"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.2",
            "--arec", "pop", "--theta", "thetaN", "--coverage", "stat",
            "--sample-size", "30", "--output", str(target),
        ]
    ) == 0
    assert target.exists()
    assert "f_measure" in target.read_text()


# --------------------------------------------------------------------------- #
# --jobs / --backend: validation and output equivalence
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("option,value", [
    ("--jobs", "0"),
    ("--jobs", "-2"),
    ("--jobs", "two"),
    ("--block-size", "0"),
    ("--block-size", "-5"),
])
def test_cli_rejects_non_positive_jobs_and_block_size(option, value):
    with pytest.raises(ConfigurationError, match=option.replace("--", "--")):
        main(["recommend", "--dataset", "ml100k", "--scale", "0.2", option, value])


def test_cli_run_rejects_non_positive_jobs(tmp_path):
    with pytest.raises(ConfigurationError, match="--jobs"):
        main(["run", "--config", "whatever.json", "--jobs", "0"])


@pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "abc"])
def test_cli_rejects_non_positive_scale(value):
    """--scale is validated at parse time, naming the flag (not deep in synthesis)."""
    with pytest.raises(ConfigurationError, match="--scale"):
        main(["table2", "--scale", value])


@pytest.mark.parametrize("option,value", [
    ("--shard-size", "0"),
    ("--max-users", "-1"),
    ("--n", "0"),
    ("--jobs", "0"),
])
def test_cli_compile_rejects_bad_arguments(option, value):
    with pytest.raises(ConfigurationError, match=option):
        main(["compile", "--pipeline", "p", "--artifact", "a", option, value])


def test_cli_jobs_and_backend_preserve_recommend_output(tmp_path, capsys):
    """--jobs changes nothing but speed; --backend is accepted with no effect."""
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    base = [
        "recommend", "--dataset", "ml100k", "--scale", "0.15",
        "--arec", "psvd10", "--theta", "thetaG", "--coverage", "dyn",
        "--sample-size", "25",
    ]
    assert main(base + ["--save-recommendations", str(serial_csv)]) == 0
    assert main(
        base + [
            "--jobs", "2", "--backend", "process", "--block-size", "9",
            "--save-recommendations", str(parallel_csv),
        ]
    ) == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()


def test_cli_run_jobs_override_preserves_spec_output(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.15",
            "--arec", "pop", "--theta", "thetaN", "--coverage", "stat",
            "--sample-size", "25", "--dump-spec", str(spec_path),
            "--save-recommendations", str(serial_csv),
        ]
    ) == 0
    assert main(
        [
            "run", "--config", str(spec_path), "--jobs", "2",
            "--backend", "thread", "--save-recommendations", str(parallel_csv),
        ]
    ) == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()


def test_cli_run_accepts_a_spec_naming_an_executor_backend(tmp_path, capsys):
    """Older specs carry execution.backend; it loads and is ignored."""
    spec_path = tmp_path / "spec.json"
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.15",
            "--arec", "psvd10", "--theta", "thetaG", "--coverage", "dyn",
            "--sample-size", "25", "--dump-spec", str(spec_path),
            "--save-recommendations", str(serial_csv),
        ]
    ) == 0
    config = json.loads(spec_path.read_text())
    assert config["execution"] == {"n_jobs": 1}
    config["execution"] = {"backend": "process", "n_jobs": 2}
    spec_path.write_text(json.dumps(config))
    assert main(
        ["run", "--config", str(spec_path), "--save-recommendations", str(parallel_csv)]
    ) == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()


def test_cli_load_pipeline_jobs_override_serves_identically(tmp_path, capsys):
    artifact = tmp_path / "artifact"
    serial_csv = tmp_path / "serial.csv"
    parallel_csv = tmp_path / "parallel.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.15",
            "--arec", "psvd10", "--theta", "thetaG", "--coverage", "dyn",
            "--sample-size", "25", "--save-pipeline", str(artifact),
            "--save-recommendations", str(serial_csv),
        ]
    ) == 0
    assert main(
        [
            "run", "--load-pipeline", str(artifact), "--jobs", "2",
            "--backend", "process", "--save-recommendations", str(parallel_csv),
        ]
    ) == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()


# --------------------------------------------------------------------------- #
# GANC optimizer knobs: --sample-size / --bandwidth / --theta-order
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "option,value",
    [
        ("--sample-size", "0"),
        ("--sample-size", "-3"),
        ("--sample-size", "many"),
        ("--bandwidth", "0"),
        ("--bandwidth", "-1.5"),
        ("--bandwidth", "silvermann"),
        ("--bandwidth", "inf"),
        ("--theta-order", "sideways"),
    ],
)
def test_cli_recommend_rejects_bad_ganc_knobs(option, value):
    with pytest.raises(ConfigurationError, match=option.replace("-", "[-]")):
        main(["recommend", option, value])


@pytest.mark.parametrize(
    "option,value",
    [
        ("--sample-size", "0"),
        ("--bandwidth", "nope"),
        ("--theta-order", "diagonal"),
    ],
)
def test_cli_run_rejects_bad_ganc_knobs(tmp_path, option, value):
    with pytest.raises(ConfigurationError, match=option.replace("-", "[-]")):
        main(["run", "--config", str(tmp_path / "spec.json"), option, value])


def test_cli_recommend_threads_ganc_knobs_into_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.2",
            "--arec", "pop", "--theta", "thetaT", "--coverage", "dyn",
            "--sample-size", "17", "--bandwidth", "0.25",
            "--theta-order", "decreasing",
            "--dump-spec", str(spec_path),
        ]
    ) == 0
    from repro.pipeline import PipelineSpec

    spec = PipelineSpec.from_json_file(spec_path)
    assert spec.ganc.sample_size == 17
    assert spec.ganc.bandwidth == 0.25
    assert spec.ganc.theta_order == "decreasing"


def test_cli_run_ganc_overrides_change_the_run(tmp_path, capsys):
    """`run` overrides must actually reach the optimizer: a different

    sample size changes which users are served sequentially, while the same
    override value reproduces the unmodified spec byte-for-byte."""
    spec_path = tmp_path / "spec.json"
    base_csv = tmp_path / "base.csv"
    same_csv = tmp_path / "same.csv"
    assert main(
        [
            "recommend", "--dataset", "ml100k", "--scale", "0.2",
            "--arec", "pop", "--theta", "thetaT", "--coverage", "dyn",
            "--sample-size", "30",
            "--dump-spec", str(spec_path),
            "--save-recommendations", str(base_csv),
        ]
    ) == 0
    assert main(
        [
            "run", "--config", str(spec_path),
            "--sample-size", "30",
            "--save-recommendations", str(same_csv),
        ]
    ) == 0
    assert base_csv.read_bytes() == same_csv.read_bytes()


def _post_batch_to_cli_server(artifact_dir: Path, flags: list[str]) -> tuple[int, bytes]:
    """Start `repro serve` with ``flags``, POST one batch, stop the server."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact_dir),
         "--port", "0", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, banner
        deadline = time.monotonic() + 30
        while True:  # the socket listens before the event loop accepts
            try:
                conn = http.client.HTTPConnection(match.group(1), int(match.group(2)), timeout=30)
                try:
                    conn.request("POST", "/recommend/batch", body=b'{"users": [0, 3], "n": 5}')
                    response = conn.getresponse()
                    return response.status, response.read()
                finally:
                    conn.close()
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def test_cli_serve_runs_the_async_tier_with_or_without_async(small_split, tmp_path):
    """Every `repro serve` is the asyncio tier; --async is accepted and changes nothing."""
    from repro.pipeline import ComponentSpec, EvaluationSpec, Pipeline, PipelineSpec
    from repro.serving import RecommendationStore, compile_artifact
    from repro.serving.service import recommend_payload

    spec = PipelineSpec(recommender=ComponentSpec("pop"), evaluation=EvaluationSpec(n=5), seed=0)
    compile_artifact(Pipeline(spec).fit(small_split), tmp_path / "art")
    store = RecommendationStore(tmp_path / "art")
    expected = [recommend_payload(store, user, 5, *store.lookup(user, 5)) for user in (0, 3)]

    # --coalesce-max configures the coalescing tier; it needs no --async.
    status, body = _post_batch_to_cli_server(tmp_path / "art", ["--coalesce-max", "8"])
    assert status == 200
    assert json.loads(body) == {"count": 2, "results": expected}
    assert _post_batch_to_cli_server(tmp_path / "art", ["--async"]) == (status, body)


def test_cli_serve_rejects_nonpositive_worker_counts(tmp_path):
    with pytest.raises(ConfigurationError, match="--workers must be >= 1"):
        main(["serve", "--artifact", str(tmp_path), "--async", "--workers", "0"])
    with pytest.raises(ConfigurationError, match="--coalesce-max must be >= 1"):
        main(["serve", "--artifact", str(tmp_path), "--async", "--coalesce-max", "-1"])
