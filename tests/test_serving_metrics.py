"""Tests for the Prometheus-text ``/metrics`` endpoint of ``repro serve``."""

from __future__ import annotations

import http.client
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.spec import ComponentSpec, EvaluationSpec, PipelineSpec
from repro.serving.artifact import compile_artifact
from repro.serving.async_service import build_async_service, start_async_in_thread
from repro.serving.metrics import (
    DEFAULT_BUCKETS,
    METRICS_CONTENT_TYPE,
    LatencyHistogram,
    ServingMetrics,
    parse_metrics,
)

N = 5


@pytest.fixture(scope="module")
def pop_pipeline_dir(tmp_path_factory, small_split) -> Path:
    directory = tmp_path_factory.mktemp("pipeline-pop-metrics")
    spec = PipelineSpec(
        recommender=ComponentSpec("pop"), evaluation=EvaluationSpec(n=N), seed=0
    )
    Pipeline(spec).fit(small_split).save(directory)
    return directory


@pytest.fixture(scope="module")
def pop_artifact_dir(tmp_path_factory, pop_pipeline_dir) -> Path:
    directory = tmp_path_factory.mktemp("artifact-pop-metrics")
    compile_artifact(pop_pipeline_dir, directory, shard_size=16)
    return directory


def _request(address: tuple[str, int], path: str) -> tuple[int, str, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Histogram unit behaviour
# --------------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_buckets_are_cumulative_and_end_at_inf(self):
        histogram = LatencyHistogram(buckets=(0.001, 0.01, 0.1))
        for seconds in (0.0005, 0.002, 0.002, 0.05, 3.0):
            histogram.observe(seconds)
        buckets, count, observed_sum = histogram.snapshot()
        assert buckets == [("0.001", 1), ("0.01", 3), ("0.1", 4), ("+Inf", 5)]
        assert count == 5
        assert observed_sum == pytest.approx(0.0005 + 0.002 + 0.002 + 0.05 + 3.0)

    def test_observation_on_a_bound_lands_in_that_bucket(self):
        histogram = LatencyHistogram(buckets=(0.01, 0.1))
        histogram.observe(0.01)  # le is inclusive in Prometheus semantics
        buckets, _, _ = histogram.snapshot()
        assert buckets[0] == ("0.01", 1)

    def test_empty_snapshot(self):
        buckets, count, observed_sum = LatencyHistogram().snapshot()
        assert count == 0 and observed_sum == 0.0
        assert all(cumulative == 0 for _, cumulative in buckets)
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1

    @pytest.mark.parametrize("bad", [(), (0.0, 1.0), (-1.0,), (0.1, 0.1), (0.2, 0.1)])
    def test_invalid_bounds_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            LatencyHistogram(buckets=bad)


class TestServingMetricsRender:
    def test_render_and_parse_round_trip(self):
        metrics = ServingMetrics()
        metrics.observe("recommend", 0.002)
        metrics.observe("recommend", 0.004)
        metrics.observe("healthz", 0.0001)
        text = metrics.render(
            store_stats={"artifact_rows": 7, "fallback_rows": 2, "fallback_builds": 1},
            reloads=3,
            reload_failures=1,
            extra_counters={"coalesce_batches": 5},
        )
        samples = parse_metrics(text)
        assert samples['repro_requests_total{endpoint="recommend"}'] == 2
        assert samples['repro_requests_total{endpoint="healthz"}'] == 1
        assert samples["repro_request_latency_seconds_count"] == 3
        assert samples["repro_request_latency_seconds_sum"] == pytest.approx(0.0061)
        assert samples['repro_request_latency_seconds_bucket{le="+Inf"}'] == 3
        assert samples['repro_store_rows_total{source="artifact"}'] == 7
        assert samples['repro_store_rows_total{source="fallback"}'] == 2
        assert samples["repro_fallback_builds_total"] == 1
        assert samples["repro_reloads_total"] == 3
        assert samples["repro_reload_failures_total"] == 1
        assert samples["repro_coalesce_batches"] == 5
        assert text.endswith("\n")

    def test_bucket_counts_are_monotone_in_exposition(self):
        metrics = ServingMetrics(buckets=(0.001, 0.01))
        for seconds in (0.0001, 0.005, 0.5):
            metrics.observe("recommend", seconds)
        samples = parse_metrics(metrics.render())
        assert (
            samples['repro_request_latency_seconds_bucket{le="0.001"}']
            <= samples['repro_request_latency_seconds_bucket{le="0.01"}']
            <= samples['repro_request_latency_seconds_bucket{le="+Inf"}']
        )

    def test_render_without_store_stats_skips_row_counters(self):
        text = ServingMetrics().render()
        assert "repro_store_rows_total" not in text
        assert "repro_reloads_total 0" in text


# --------------------------------------------------------------------------- #
# Live endpoint
# --------------------------------------------------------------------------- #
def test_async_tier_metrics_endpoint(pop_pipeline_dir, pop_artifact_dir):
    service = build_async_service(pop_artifact_dir, pipeline=pop_pipeline_dir)
    handle = start_async_in_thread(service)
    try:
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:  # keep-alive connection: these GETs take the coalesced fast path
            for user in range(3):
                conn.request("GET", f"/recommend?user={user}&n={N}")
                assert conn.getresponse().read()
        finally:
            conn.close()
        _request(handle.address, "/healthz")
        _request(handle.address, "/nope")

        status, content_type, body = _request(handle.address, "/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        samples = parse_metrics(body.decode("utf-8"))
        assert samples['repro_requests_total{endpoint="recommend"}'] == 3
        assert samples['repro_requests_total{endpoint="healthz"}'] == 1
        assert samples['repro_requests_total{endpoint="other"}'] == 1
        assert samples["repro_request_latency_seconds_count"] == 5
        assert samples['repro_store_rows_total{source="artifact"}'] == 3
        assert samples["repro_reloads_total"] == 0
        # Coalescing counters are exported with a prefix.
        assert samples["repro_coalesce_batched_rows"] == service.coalescing["batched_rows"]
        assert samples["repro_coalesce_batches"] == service.coalescing["batches"]
        # The scrape itself is counted on the next scrape.
        _, _, body = _request(handle.address, "/metrics")
        samples = parse_metrics(body.decode("utf-8"))
        assert samples['repro_requests_total{endpoint="metrics"}'] >= 1
    finally:
        handle.stop()
